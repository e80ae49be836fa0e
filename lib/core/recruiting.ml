open Rn_util
open Rn_graph
open Rn_radio

(* Member state lives in flat arrays indexed by member position (the
   index into [reds] or [blues]).  A node reaches its position through
   [pos], a node-indexed map to the node's index in some array that holds
   it ({!create}: the member arrays themselves; the assignment phase: the
   node's BFS level, shared by every instance of one construction), then
   through [red_of]/[blue_of], which turn that index into a member
   position.  [member] confirms the hit, because [pos] also maps the
   nodes of other levels. *)
type t = {
  graph : Graph.t;
  params : Params.t;
  ladder : int;  (* ⌈log n⌉ *)
  iter_len : int;  (* 2 + ladder *)
  total_rounds : int;
  reds : int array;
  blues : int array;
  pos : int array;
  red_of : int array;  (* pos → red member position; -1 none *)
  blue_of : int array;
  (* red members *)
  red_rng : Rng.t array;
  coin : bool array;
  claim : int array;  (* first distinct blue claiming me this iteration; -1 none *)
  claims_many : bool array;  (* a second distinct blue claimed too *)
  recruits : int array;  (* saturating at 2 = "many" *)
  single : int array;  (* the unique recruit when recruits = 1 *)
  (* blue members *)
  blue_rng : Rng.t array;
  heard : int array;  (* red heard in this iteration's announce round; -1 none *)
  parent : int array;  (* -1 = not recruited *)
  many : bool array;  (* belief about parent's class *)
  mutable round : int;
  mutable done_flag : bool;
}

let index_of ~pos members =
  let size = Array.fold_left (fun acc v -> max acc (pos.(v) + 1)) 0 members in
  let of_ = Array.make size (-1) in
  Array.iteri (fun i v -> of_.(pos.(v)) <- i) members;
  of_

let create_indexed ~pos ~rng ~params ~scale_n ~graph ~reds ~blues () =
  let ladder = Params.phase_len ~n:scale_n in
  let iter_len = 2 + ladder in
  let iters = Params.recruit_iterations params ~n:scale_n in
  let nr = Array.length reds and nb = Array.length blues in
  let red_rng = Array.map (fun _ -> Rng.split rng) reds in
  let blue_rng = Array.map (fun _ -> Rng.split rng) blues in
  {
    graph;
    params;
    ladder;
    iter_len;
    total_rounds = iters * iter_len;
    reds;
    blues;
    pos;
    red_of = index_of ~pos reds;
    blue_of = index_of ~pos blues;
    red_rng;
    coin = Array.make nr false;
    claim = Array.make nr (-1);
    claims_many = Array.make nr false;
    recruits = Array.make nr 0;
    single = Array.make nr (-1);
    blue_rng;
    heard = Array.make nb (-1);
    parent = Array.make nb (-1);
    many = Array.make nb false;
    round = 0;
    done_flag = false;
  }

let create ~rng ~params ~scale_n ~graph ~reds ~blues () =
  let pos = Array.make (Graph.n graph) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) reds;
  Array.iteri (fun i v -> pos.(v) <- i) blues;
  create_indexed ~pos ~rng ~params ~scale_n ~graph ~reds ~blues ()

(* Member position of [v] among [ids], or -1. *)
let[@inline] member ~pos ~of_ ids v =
  let p = pos.(v) in
  if p < 0 || p >= Array.length of_ then -1
  else
    let i = of_.(p) in
    if i >= 0 && ids.(i) = v then i else -1

let[@inline] red_index t v = member ~pos:t.pos ~of_:t.red_of t.reds v
let[@inline] blue_index t v = member ~pos:t.pos ~of_:t.blue_of t.blues v

(* Round [r] of an iteration: 0 announces, 1..ladder claim (the Decay
   step is [r]), the last round carries the verdicts. *)
let[@inline] slot_round t = t.round mod t.iter_len

let iteration t = t.round / t.iter_len

(* Announce with probability 2^{-⌈j/⌈log n⌉⌉}, cycling so long runs keep
   sweeping all scales; this is the exponent. *)
let announce_exponent t = min (((iteration t / t.ladder) mod t.ladder) + 1) 62

let verdict t i ~node =
  if t.claims_many.(i) then Cmsg.Sigma node
  else if t.claim.(i) >= 0 then begin
    if t.recruits.(i) >= 1 then Cmsg.Sigma node
    else Cmsg.Confirm { red = node; blue = t.claim.(i) }
  end
  else if
    (* Echo the standing verdict for class consistency. *)
    t.recruits.(i) >= 2
  then Cmsg.Sigma node
  else if t.recruits.(i) = 1 then Cmsg.Confirm { red = node; blue = t.single.(i) }
  else Cmsg.Beacon

let decide t ~node =
  if t.done_flag then Engine.Sleep
  else
    let r = slot_round t in
    let i = red_index t node in
    if i >= 0 then begin
      if r = 0 then begin
        let coin = Rng.bernoulli_pow2 t.red_rng.(i) (announce_exponent t) in
        t.coin.(i) <- coin;
        t.claim.(i) <- -1;
        t.claims_many.(i) <- false;
        if coin then Engine.Transmit (Cmsg.Red_id node) else Engine.Listen
      end
      else if r <= t.ladder || not t.coin.(i) then Engine.Listen
      else Engine.Transmit (verdict t i ~node)
    end
    else
      let j = blue_index t node in
      if j < 0 then Engine.Sleep
      else if r = 0 then begin
        t.heard.(j) <- -1;
        Engine.Listen
      end
      else if r <= t.ladder && t.parent.(j) < 0 && t.heard.(j) >= 0 then begin
        if Rng.bernoulli_pow2 t.blue_rng.(j) (min r 62) then
          Engine.Transmit (Cmsg.Claim { blue = node; red = t.heard.(j) })
        else Engine.Listen
      end
      else Engine.Listen

let red_index_exn t red =
  let i = red_index t red in
  if i < 0 then invalid_arg "Recruiting: verdict from a non-member red";
  i

let commit_recruit t i ~blue =
  if t.recruits.(i) = 0 then begin
    t.recruits.(i) <- 1;
    t.single.(i) <- blue
  end
  else t.recruits.(i) <- 2

let deliver t ~node reception =
  if not t.done_flag then
    match reception with
    | Engine.Silence | Engine.Collision -> ()
    | Engine.Received msg -> (
        let r = slot_round t in
        let i = red_index t node in
        if i >= 0 then begin
          match msg with
          | Cmsg.Claim { blue; red = target }
            when target = node && r >= 1 && r <= t.ladder ->
              if t.claim.(i) < 0 then t.claim.(i) <- blue
              else if t.claim.(i) <> blue then t.claims_many.(i) <- true
          | _ -> ()
        end
        else
          let j = blue_index t node in
          if j >= 0 then
            match msg with
            | Cmsg.Red_id red when r = 0 -> t.heard.(j) <- red
            | Cmsg.Confirm { red; blue = b } when r > t.ladder ->
                if b = node && t.parent.(j) < 0 && t.heard.(j) = red then begin
                  t.parent.(j) <- red;
                  t.many.(j) <- false;
                  commit_recruit t (red_index_exn t red) ~blue:node
                end
            | Cmsg.Sigma red when r > t.ladder ->
                if t.parent.(j) = red then t.many.(j) <- true
                else if t.parent.(j) < 0 && t.heard.(j) = red then begin
                  t.parent.(j) <- red;
                  t.many.(j) <- true;
                  (* The red might not have heard this blue; its class is
                     already Many by construction of Sigma. *)
                  let ri = red_index_exn t red in
                  (* rblint:allow R12 Lemma-6 bookkeeping writes the recruiting red's record from the blue's callback; the recruiting subroutine is a serial building block and never runs with domains > 1. *)
                  if t.recruits.(ri) < 2 then t.recruits.(ri) <- 2
                end
            | _ -> ())

let coverable t b =
  Graph.fold_neighbors t.graph b (fun acc v -> acc || red_index t v >= 0) false

let goal_reached t =
  let rec go j =
    j >= Array.length t.blues
    || ((not (coverable t t.blues.(j)))
        || (t.parent.(j) >= 0
           && t.many.(j) = (t.recruits.(red_index_exn t t.parent.(j)) >= 2)))
       && go (j + 1)
  in
  go 0

let advance t =
  if not t.done_flag then begin
    t.round <- t.round + 1;
    if t.round >= t.total_rounds then t.done_flag <- true
    else if
      t.params.Params.adaptive
      && t.round mod t.iter_len = 0
      && goal_reached t
    then t.done_flag <- true
  end

let finished t = t.done_flag

type red_class = Zero | One of int | Many

let parent_of t b =
  let j = blue_index t b in
  if j >= 0 && t.parent.(j) >= 0 then Some t.parent.(j) else None

let red_class t r =
  let i = red_index t r in
  if i < 0 then Zero
  else if t.recruits.(i) >= 2 then Many
  else if t.recruits.(i) = 1 then One t.single.(i)
  else Zero

let blue_sees_many t b =
  let j = blue_index t b in
  if j >= 0 && t.parent.(j) >= 0 then Some t.many.(j) else None

let rounds_used t = t.round

let reds t = t.reds

let blues t = t.blues

type outcome = {
  recruited : (int * int) list;
  rounds : int;
  all_covered : bool;
  classes_consistent : bool;
}

let run_standalone ?(detection = Engine.No_collision_detection) ?metrics ~rng
    ~params ~graph ~reds ~blues () =
  let t = create ~rng ~params ~scale_n:(Graph.n graph) ~graph ~reds ~blues () in
  (* rblint:allow R14 internal Lemma-6 driver: a serial building block of the assignment phase, reachable from registered pipelines only through Bipartite_assignment; not a user-facing protocol. *)
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> decide t ~node);
      deliver = (fun ~round:_ ~node r -> deliver t ~node r);
    }
  in
  (* Nodes outside the bipartite population sleep in every round (decide
     falls through both tables), so the awake set is static.  No skip
     hint: every slot keeps some population awake (announce coins, claim
     listeners, verdict transmitters). *)
  let active_ids =
    let n = Graph.n graph in
    let mark = Array.make n false in
    Array.iter (fun v -> mark.(v) <- true) reds;
    Array.iter (fun v -> mark.(v) <- true) blues;
    let count = ref 0 in
    Array.iter (fun b -> if b then incr count) mark;
    let ids = Array.make (max !count 1) 0 in
    let i = ref 0 in
    for v = 0 to n - 1 do
      if mark.(v) then begin
        ids.(!i) <- v;
        incr i
      end
    done;
    (ids, !count)
  in
  let decide_active ~round:_ dst =
    let ids, count = active_ids in
    Array.blit ids 0 dst 0 count;
    count
  in
  (* Phase = recruiting iteration (one announce/claim/verdict cycle).
     [advance] moves [t.round], so the annotation reads the machine's own
     iteration counter right after advancing — coordinator-serial. *)
  let after_round =
    match metrics with
    | None -> fun ~round:_ -> advance t
    | Some m ->
        Rn_obs.Phase.enter m 0;
        fun ~round:_ ->
          advance t;
          Rn_obs.Phase.enter m (iteration t)
  in
  let stop ~round:_ = finished t in
  let max_rounds = t.total_rounds + 1 in
  let outcome =
    Engine.run ?metrics ~decide_active ~graph ~detection ~protocol
      ~after_round ~stop ~max_rounds ()
  in
  let rounds = Engine.rounds_of_outcome outcome in
  let recruited =
    Array.to_list t.blues
    |> List.filter_map (fun b ->
           match parent_of t b with Some r -> Some (b, r) | None -> None)
  in
  let all_covered =
    Array.for_all
      (fun b -> (not (coverable t b)) || Option.is_some (parent_of t b))
      t.blues
  in
  let classes_consistent =
    List.for_all
      (fun (b, r) ->
        match (blue_sees_many t b, red_class t r) with
        | Some m, Many -> m
        | Some m, One _ -> not m
        | _ -> false)
      recruited
  in
  { recruited; rounds; all_covered; classes_consistent }
