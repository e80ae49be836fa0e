open Rn_util
open Rn_graph
open Rn_radio

type stage =
  | Waiting
  | Identify
  | Loner_probe
  | Loner_inform
  | Part of int * Recruiting.t
  | Stage3
  | Done

(* Per-node state is flat and sized to the block: red flags are indexed
   by a red's position in [reds], blue flags by a blue's position in
   [blues].  [pos] maps a node id to its index in whichever array holds
   it; the assignment phase passes one map of positions within BFS
   levels for all its blocks, so a block allocates nothing of size n.
   [red_pos]/[blue_pos] confirm the hit, because [pos] also maps the
   nodes of other levels. *)
type t = {
  rng : Rng.t;
  params : Params.t;
  scale_n : int;
  graph : Graph.t;
  reds : int array;
  blues : int array;
  pos : int array;
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  ready : rank:int -> bool;
  ladder : int;
  decay_budget : int;
  red_rng : Rng.t array;
  blue_rng : Rng.t array;
  (* rank-phase state *)
  mutable rank : int;
  mutable stage : stage;
  mutable stage_round : int;
  mutable rounds : int;
  active : bool array;  (* by red position *)
  excluded : bool array;  (* by red position *)
  (* epoch state *)
  loner : bool array;  (* by blue position *)
  loner_parent : bool array;  (* by red position *)
  brisk : bool array;  (* by red position *)
  marked : bool array;  (* by red position: ranked this epoch (Stage III) *)
  temp_taken : bool array;  (* by blue position *)
  offer_red : int array;  (* by blue position *)
  offer_rank : int array;  (* by blue position *)
  (* Awake ids of the current stage, an order-preserving subsequence of
     [reds @ blues]; refilled on the stage's first query ([fill_awake]). *)
  awake : int array;
  mutable n_awake : int;
  mutable awake_stale : bool;
  mutable epoch : int;
  mutable epoch_hist : (int * int) list;
  mutable fixups : int;
  mutable fallbacks : int;
}

(* Decay step [r] transmits with probability 2^{-e}; this is [e]. *)
let decay_exponent t r = min ((r mod t.ladder) + 1) 62

let[@inline] member pos ids v =
  let p = pos.(v) in
  if p >= 0 && p < Array.length ids && ids.(p) = v then p else -1

(* Position of [v] among the block's reds (blues), or -1. *)
let[@inline] red_pos t v = member t.pos t.reds v
let[@inline] blue_pos t v = member t.pos t.blues v

(* [Array.for_all] with the position: [f i a.(i)] for every [i]. *)
let for_alli a f =
  let rec go i = i >= Array.length a || (f i a.(i) && go (i + 1)) in
  go 0

(* The predicates below take a node known to be one of the block's blues. *)
let primary t b = t.parents.(b) < 0 && t.ranks.(b) = t.rank

let secondary t b = t.parents.(b) < 0 && t.ranks.(b) < t.rank && t.ranks.(b) >= 1

let is_primary t b = blue_pos t b >= 0 && primary t b

let red_eligible t i = t.ranks.(t.reds.(i)) = 0 && not t.excluded.(i)

(* A blue that heard a Stage III announcement before knowing its own rank
   buffered the offer; attach as soon as the rank is known (pipelined mode
   learns blue ranks while shallower phases are already running). *)
let apply_offers t =
  Array.iteri
    (fun j b ->
      if
        t.parents.(b) < 0
        && t.offer_red.(j) >= 0
        && t.ranks.(b) >= 1
        && t.ranks.(b) < t.offer_rank.(j)
      then begin
        t.parents.(b) <- t.offer_red.(j);
        t.parent_rank.(b) <- t.offer_rank.(j)
      end)
    t.blues

let unassigned_primaries t =
  Array.to_list t.blues |> List.filter (fun b -> primary t b)

let exists_unassigned_primary t = Array.exists (fun b -> primary t b) t.blues

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~pos ~rng ~params ~scale_n ~graph ~reds ~blues ~parents ~ranks
    ~parent_rank ~ready () =
  let nr = Array.length reds and nb = Array.length blues in
  let red_flag () = Array.make nr false and blue_flag () = Array.make nb false in
  let red_rng = Array.map (fun _ -> Rng.split rng) reds in
  let blue_rng = Array.map (fun _ -> Rng.split rng) blues in
  let ladder = Params.phase_len ~n:scale_n in
  {
    rng;
    params;
    scale_n;
    graph;
    reds;
    blues;
    pos;
    parents;
    ranks;
    parent_rank;
    ready;
    ladder;
    decay_budget = Params.whp_phases params ~n:scale_n * ladder;
    red_rng;
    blue_rng;
    rank = Ilog.clog (max 2 scale_n);
    stage = Waiting;
    stage_round = 0;
    rounds = 0;
    active = red_flag ();
    excluded = red_flag ();
    loner = blue_flag ();
    loner_parent = red_flag ();
    brisk = red_flag ();
    marked = red_flag ();
    temp_taken = blue_flag ();
    offer_red = Array.make nb (-1);
    offer_rank = Array.make nb (-1);
    awake = Array.make (max 1 (nr + nb)) 0;
    n_awake = 0;
    awake_stale = true;
    epoch = 0;
    epoch_hist = [];
    fixups = 0;
    fallbacks = 0;
  }

(* ------------------------------------------------------------------ *)
(* Stage transitions (run inside [advance]) *)

let clear a = Array.fill a 0 (Array.length a) false

let reset_rank_state t =
  clear t.active;
  clear t.excluded;
  t.epoch <- 0

let reset_epoch_state t =
  clear t.loner;
  clear t.loner_parent;
  clear t.brisk;
  clear t.temp_taken;
  clear t.marked

let enter t stage =
  t.stage <- stage;
  t.stage_round <- 0;
  t.awake_stale <- true

let identify_goal t =
  (* Every eligible red adjacent to an unassigned primary has activated. *)
  for_alli t.reds (fun i v ->
      (not (red_eligible t i))
      || t.active.(i)
      || not (Graph.fold_neighbors t.graph v (fun acc b -> acc || is_primary t b) false))

let loner_inform_goal t =
  for_alli t.reds (fun i v ->
      (not (t.active.(i) && not t.loner_parent.(i)))
      || not
           (Graph.fold_neighbors t.graph v
              (fun acc b ->
                acc
                ||
                let j = blue_pos t b in
                j >= 0 && t.loner.(j) && primary t b)
              false))

let is_marked t v =
  let i = red_pos t v in
  i >= 0 && t.marked.(i)

let stage3_goal t =
  for_alli t.blues (fun j b ->
      let has_marked_nbr () =
        Graph.fold_neighbors t.graph b (fun acc v -> acc || is_marked t v) false
      in
      if secondary t b then not (has_marked_nbr ())
      else if t.parents.(b) < 0 && t.ranks.(b) = 0 then
        t.offer_red.(j) >= 0 || not (has_marked_nbr ())
      else true)

(* The members of recruiting part [k], in block order. *)
let part_reds t k =
  let keep i =
    t.active.(i)
    &&
    match k with
    | 1 -> t.loner_parent.(i)
    | 2 -> t.brisk.(i)
    | 3 -> (not t.loner_parent.(i)) && not t.brisk.(i)
    | _ -> assert false
  in
  List.filteri (fun i _ -> keep i) (Array.to_list t.reds)

let part_blues t =
  List.filteri
    (fun j b -> primary t b && not t.temp_taken.(j))
    (Array.to_list t.blues)

let harvest_part t k (recr : Recruiting.t) =
  let bl = part_blues t in
  (* Blues first: permanence decisions from (class-consistent) beliefs. *)
  List.iter
    (fun b ->
      match Recruiting.parent_of recr b with
      | None -> ()
      | Some v ->
          let truth =
            match Recruiting.red_class recr v with
            | Recruiting.Many -> true
            | Recruiting.One _ -> false
            | Recruiting.Zero -> assert false
          in
          (match Recruiting.blue_sees_many recr b with
          | Some belief when belief <> truth -> t.fixups <- t.fixups + 1
          | Some _ | None -> ());
          let many = truth in
          if k = 1 then begin
            (* Part 1 recruits are permanent regardless of class. *)
            t.parents.(b) <- v;
            t.parent_rank.(b) <- (if many then t.rank + 1 else t.rank)
          end
          else if many then begin
            t.parents.(b) <- v;
            t.parent_rank.(b) <- t.rank + 1
          end
          else t.temp_taken.(blue_pos t b) <- true)
    bl;
  (* Reds: marking and ranking. *)
  List.iter
    (fun v ->
      let i = red_pos t v in
      match Recruiting.red_class recr v with
      | Recruiting.Zero -> if k >= 2 then t.excluded.(i) <- true
      | Recruiting.One _ ->
          if k = 1 then begin
            t.ranks.(v) <- t.rank;
            t.excluded.(i) <- true;
            t.marked.(i) <- true
          end
          (* Parts 2/3 single recruits stay active with a temporary child. *)
      | Recruiting.Many ->
          t.ranks.(v) <- t.rank + 1;
          t.excluded.(i) <- true;
          t.marked.(i) <- true)
    (part_reds t k)

let rec next_rank t =
  t.rank <- t.rank - 1;
  if t.rank < 1 then enter t Done
  else if not (t.ready ~rank:t.rank) then enter t Waiting
  else begin
    reset_rank_state t;
    apply_offers t;
    if exists_unassigned_primary t then enter t Identify else next_rank t
  end

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  if t.epoch > 4 * Params.max_epochs t.params ~n:t.scale_n then
    failwith "Bipartite_assignment: epoch budget blown (protocol stalled)";
  reset_epoch_state t;
  let count =
    Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.active
  in
  t.epoch_hist <- (t.rank, count) :: t.epoch_hist;
  enter t Loner_probe

let start_rank_or_finish t =
  (* Called when the current rank has no unassigned primaries left. *)
  next_rank t

let enter_part t k =
  let rl = part_reds t k and bl = part_blues t in
  match (rl, bl) with
  | [], _ -> None
  | _ :: _, [] ->
      begin
    (* The part would run with nothing to recruit: every red of the part
       recruits zero, so (Stage III) it is marked and leaves the rank
       phase.  Skipping without marking would let a red hold a temporary
       child epoch after epoch and stall the shrinkage of Lemma 2.4. *)
    if k >= 2 then List.iter (fun v -> t.excluded.(red_pos t v) <- true) rl;
    None
  end
  | _ :: _, _ :: _ ->
      Some
        (Recruiting.create_indexed ~pos:t.pos ~rng:(Rng.split t.rng)
           ~params:t.params
           ~scale_n:t.scale_n ~graph:t.graph ~reds:(Array.of_list rl)
           ~blues:(Array.of_list bl) ())

let end_epoch t =
  (* Temporaries dissolve; marked reds leave the rank phase. *)
  clear t.temp_taken;
  Array.iteri (fun i ex -> if ex then t.active.(i) <- false) t.excluded;
  if exists_unassigned_primary t then begin
    (* Last-resort net for a w.h.p. failure: a primary whose upper
       neighbors are all permanently ranked can still attach to one of
       strictly higher rank without disturbing any announced rank (the
       Stage III rule applied late).  An all-equal-rank neighborhood
       cannot be repaired locally; surface it. *)
    List.iter
      (fun b ->
        let has_unranked =
          Graph.fold_neighbors t.graph b
            (fun acc v -> acc || (red_pos t v >= 0 && t.ranks.(v) = 0))
            false
        in
        if not has_unranked then begin
          let higher =
            Graph.fold_neighbors t.graph b
              (fun acc v ->
                if red_pos t v >= 0 && t.ranks.(v) > t.ranks.(b) then v :: acc
                else acc)
              []
          in
          match higher with
          | v :: _ ->
              t.parents.(b) <- v;
              t.parent_rank.(b) <- t.ranks.(v)
          | [] ->
              failwith
                "Bipartite_assignment: stranded blue with only equal-rank \
                 ranked neighbors (w.h.p. failure; raise Params budgets)"
        end)
      (unassigned_primaries t);
    let stranded =
      List.exists
        (fun b ->
          not
            (Graph.fold_neighbors t.graph b
               (fun acc v ->
                 acc
                 ||
                 let i = red_pos t v in
                 i >= 0 && t.active.(i))
               false))
        (unassigned_primaries t)
    in
    if stranded then begin
      (* Robustness fallback: let unranked marked reds rejoin and
         re-identify the active set. *)
      t.fallbacks <- t.fallbacks + 1;
      Array.iteri (fun i v -> if t.ranks.(v) = 0 then t.excluded.(i) <- false) t.reds;
      clear t.active;
      enter t Identify
    end
    else begin_epoch t
  end
  else start_rank_or_finish t

(* Move through zero-round transitions until a stage that consumes rounds. *)
let rec settle t =
  match t.stage with
  | Done -> ()
  | Waiting ->
      if t.ready ~rank:t.rank then begin
        reset_rank_state t;
        apply_offers t;
        if exists_unassigned_primary t then begin
          enter t Identify;
          settle t
        end
        else begin
          next_rank t;
          settle t
        end
      end
  | Identify ->
      if
        t.stage_round >= t.decay_budget
        || (t.params.Params.adaptive && t.stage_round mod t.ladder = 0
           && t.stage_round > 0 && identify_goal t)
      then begin
        begin_epoch t;
        settle t
      end
  | Loner_probe -> () (* consumes exactly one round; advanced explicitly *)
  | Loner_inform ->
      if
        t.stage_round >= t.decay_budget
        || (t.params.Params.adaptive && t.stage_round mod t.ladder = 0
           && t.stage_round > 0 && loner_inform_goal t)
      then begin
        (match enter_part t 1 with
        | Some r -> enter t (Part (1, r))
        | None -> enter_next_part t 1);
        settle t
      end
  | Part (k, recr) ->
      if Recruiting.finished recr then begin
        harvest_part t k recr;
        enter_next_part t k;
        settle t
      end
  | Stage3 ->
      if
        t.stage_round >= t.decay_budget
        || (t.params.Params.adaptive && t.stage_round mod t.ladder = 0
           && stage3_goal t)
      then begin
        end_epoch t;
        settle t
      end

and enter_next_part t k =
  if k >= 3 then begin
    (* Brisk/lazy coins are per-epoch; after part 3 comes Stage III (skip
       straight to the epoch end when nobody was ranked and no secondary
       can attach). *)
    if Array.mem true t.marked then enter t Stage3 else end_epoch t
  end
  else begin
    if k = 1 then
      (* Flip the brisk/lazy coins now that loner-parents are known. *)
      Array.iteri
        (fun i rng ->
          if t.active.(i) && not t.loner_parent.(i) then
            t.brisk.(i) <- Rng.bool rng)
        t.red_rng;
    match enter_part t (k + 1) with
    | Some r -> enter t (Part (k + 1, r))
    | None -> enter_next_part t (k + 1)
  end

(* ------------------------------------------------------------------ *)
(* Awake lists (DESIGN.md §10) *)

(* The nodes the current stage can use: every node left out is one whose
   [decide] is a side-effect-free [Sleep] for the whole stage.  A Part
   wakes exactly its Recruiting members; the other live stages wake a
   superset computed on their first round, which stays valid because the
   sets it covers only shrink while the stage runs: a blue's parent is
   written only by this block, blue ranks that other blocks publish
   mid-phase are below [t.rank] (the [ready] gate), and red ranks,
   [active], [excluded], [loner] and [marked] move only in this
   block's own transitions.  Reds precede blues in every list, each in
   array order, so a list is an order-preserving subsequence of
   [reds @ blues] and the engine's touched-listener delivery order is
   unchanged. *)
let fill_awake t =
  let k = ref 0 in
  let keep a p =
    Array.iteri
      (fun i v ->
        if p i v then begin
          t.awake.(!k) <- v;
          incr k
        end)
      a
  in
  let all _ _ = true and unattached _ b = t.parents.(b) < 0 in
  (match t.stage with
  | Waiting | Done -> ()
  | Identify ->
      keep t.reds (fun i v -> t.ranks.(v) = 0 && not t.excluded.(i));
      keep t.blues unattached
  | Loner_probe ->
      keep t.reds (fun i _ -> t.active.(i));
      keep t.blues (fun _ b -> primary t b)
  | Loner_inform ->
      keep t.reds (fun i _ -> t.active.(i));
      keep t.blues (fun j b -> t.loner.(j) && primary t b)
  | Part (_, recr) ->
      keep (Recruiting.reds recr) all;
      keep (Recruiting.blues recr) all
  | Stage3 ->
      keep t.reds (fun i _ -> t.marked.(i));
      keep t.blues unattached);
  t.n_awake <- !k;
  t.awake_stale <- false

let write_awake t buf pos =
  if t.awake_stale then fill_awake t;
  Array.blit t.awake 0 buf pos t.n_awake;
  pos + t.n_awake

(* ------------------------------------------------------------------ *)
(* Scheduler interface *)

(* [decide] and [deliver] find the node's side once: [i] is its red
   position, [j] its blue position, -1 when it is not on that side. *)
let decide t ~node =
  match t.stage with
  | Done | Waiting -> Engine.Sleep
  | Part (_, recr) -> Recruiting.decide recr ~node
  | Identify ->
      let j = blue_pos t node in
      if j >= 0 && primary t node then begin
        if Rng.bernoulli_pow2 t.blue_rng.(j) (decay_exponent t t.stage_round) then
          Engine.Transmit Cmsg.Blue_here
        else Engine.Listen
      end
      else
        let i = red_pos t node in
        if i >= 0 && red_eligible t i && not t.active.(i) then Engine.Listen
        else Engine.Sleep
  | Loner_probe ->
      let i = red_pos t node in
      if i >= 0 && t.active.(i) then Engine.Transmit Cmsg.Beacon
      else if is_primary t node then Engine.Listen
      else Engine.Sleep
  | Loner_inform ->
      let j = blue_pos t node in
      if j >= 0 && primary t node && t.loner.(j) then begin
        if Rng.bernoulli_pow2 t.blue_rng.(j) (decay_exponent t t.stage_round) then
          Engine.Transmit Cmsg.Loner_here
        else Engine.Listen
      end
      else
        let i = red_pos t node in
        if i >= 0 && t.active.(i) then Engine.Listen else Engine.Sleep
  | Stage3 ->
      let i = red_pos t node in
      if i >= 0 && t.marked.(i) then begin
        if Rng.bernoulli_pow2 t.red_rng.(i) (decay_exponent t t.stage_round) then
          Engine.Transmit (Cmsg.Marked { red = node; rank = t.ranks.(node) })
        else Engine.Listen
      end
      else if
        blue_pos t node >= 0
        && (secondary t node || (t.parents.(node) < 0 && t.ranks.(node) = 0))
      then Engine.Listen
      else Engine.Sleep

let deliver t ~node reception =
  match t.stage with
  | Identify -> (
      match reception with
      | Engine.Received Cmsg.Blue_here ->
          let i = red_pos t node in
          if i >= 0 && red_eligible t i then t.active.(i) <- true
      | _ -> ())
  | Loner_probe -> (
      match reception with
      | Engine.Received Cmsg.Beacon ->
          let j = blue_pos t node in
          if j >= 0 && primary t node then t.loner.(j) <- true
      | _ -> ())
  | Loner_inform -> (
      match reception with
      | Engine.Received Cmsg.Loner_here ->
          let i = red_pos t node in
          if i >= 0 && t.active.(i) then t.loner_parent.(i) <- true
      | _ -> ())
  | Part (_, recr) -> Recruiting.deliver recr ~node reception
  | Stage3 -> (
      match reception with
      | Engine.Received (Cmsg.Marked { red; rank }) ->
          let j = blue_pos t node in
          if j >= 0 && secondary t node then begin
            t.parents.(node) <- red;
            t.parent_rank.(node) <- rank
          end
          else if
            j >= 0 && t.parents.(node) < 0 && t.ranks.(node) = 0
            && t.offer_red.(j) < 0
          then begin
            t.offer_red.(j) <- red;
            t.offer_rank.(j) <- rank
          end
      | _ -> ())
  | Done | Waiting -> ()

let advance t =
  t.rounds <- t.rounds + 1;
  (match t.stage with
  | Part (_, recr) -> Recruiting.advance recr
  | Loner_probe ->
      (* One-shot stage: move on unconditionally. *)
      t.stage_round <- t.stage_round + 1;
      if
        t.params.Params.adaptive
        && for_alli t.blues (fun j b -> not (primary t b && t.loner.(j)))
      then begin
        (* No loners: skip the inform stage. *)
        match enter_part t 1 with
        | Some r -> enter t (Part (1, r))
        | None -> enter_next_part t 1
      end
      else enter t Loner_inform
  | Identify | Loner_inform | Stage3 -> t.stage_round <- t.stage_round + 1
  | Waiting | Done -> ());
  settle t

let finished t = match t.stage with Done -> true | _ -> false

let current_rank t = if finished t then 0 else t.rank

let waiting t = match t.stage with Waiting -> true | _ -> false

let rounds_used t = t.rounds

let epoch_active_history t = List.rev t.epoch_hist

let class_fixups t = t.fixups

let fallback_reactivations t = t.fallbacks

(* ------------------------------------------------------------------ *)
(* Standalone *)

type outcome = {
  rounds : int;
  parents : int array;
  ranks : int array;
  parent_rank : int array;
  epoch_history : (int * int) list;
}

let run_standalone ?(detection = Engine.No_collision_detection) ?metrics ~rng
    ~params ~graph ~reds ~blues ~blue_ranks () =
  let n = Graph.n graph in
  let parents = Array.make n (-1) in
  let ranks = Array.make n 0 in
  let parent_rank = Array.make n (-1) in
  Array.iter (fun b -> ranks.(b) <- blue_ranks.(b)) blues;
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) reds;
  Array.iteri (fun j b -> pos.(b) <- j) blues;
  let t =
    create ~pos ~rng ~params ~scale_n:n ~graph ~reds ~blues ~parents ~ranks
      ~parent_rank
      ~ready:(fun ~rank:_ -> true)
      ()
  in
  settle t;
  (* rblint:allow R14 internal Lemma-7 driver: exercised by the assignment phase of registered GST pipelines and directly by its unit tests, not a user-facing protocol. *)
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node -> decide t ~node);
      deliver = (fun ~round:_ ~node r -> deliver t ~node r);
    }
  in
  (* [Ilog.pow] now overflow-checked: [clog n ≤ 63] keeps [63^5 < 2^30]
     comfortably in range, and a bad exponent raises instead of silently
     wrapping into a negative round budget. *)
  let max_rounds =
    params.Params.max_round_factor
    * Ilog.pow (Ilog.clog (max 2 n)) 5
  in
  (* Phase = bipartite epoch (Lemma 2.4's shrinkage unit), read off the
     machine's own counter right after [advance] — coordinator-serial. *)
  let after_round =
    match metrics with
    | None -> fun ~round:_ -> advance t
    | Some m ->
        Rn_obs.Phase.enter m 0;
        fun ~round:_ ->
          advance t;
          Rn_obs.Phase.enter m t.epoch
  in
  (* Each round wakes the current stage's awake list.  No hint: Waiting
     never occurs under the standalone [ready], and every live stage keeps
     nodes awake.  The list orders reds before blues rather than by id;
     every delivery here writes only the listener's own state (Recruiting's
     recruit count saturates), so the touched-listener order is free. *)
  let decide_active ~round:_ dst = write_awake t dst 0 in
  let stop ~round:_ = finished t in
  ignore
    (Engine.run ?metrics ~decide_active ~graph ~detection ~protocol
       ~after_round ~stop ~max_rounds ());
  {
    rounds = rounds_used t;
    parents;
    ranks;
    parent_rank;
    epoch_history = epoch_active_history t;
  }
