open Rn_graph
module Bitvec = Rn_coding.Bitvec

type detection = Collision_detection | No_collision_detection

type 'msg action = Sleep | Listen | Transmit of 'msg

type 'msg reception = Silence | Collision | Received of 'msg

type 'msg protocol = {
  decide : round:int -> node:int -> 'msg action;
  deliver : round:int -> node:int -> 'msg reception -> unit;
}

type stats = {
  mutable rounds : int;
  mutable transmissions : int;
  mutable deliveries : int;
  mutable collisions : int;
  mutable busy_rounds : int;
}

let fresh_stats () =
  { rounds = 0; transmissions = 0; deliveries = 0; collisions = 0; busy_rounds = 0 }

type outcome = Completed of int | Out_of_budget of int

let rounds_of_outcome = function Completed r | Out_of_budget r -> r

let completed_exn = function
  | Completed r -> r
  | Out_of_budget r ->
      failwith (Printf.sprintf "Engine: run exhausted its %d-round budget" r)

type 'msg trace_event =
  | Ev_transmit of { node : int; msg : 'msg }
  | Ev_receive of { node : int; reception : 'msg reception }

(* Rounds simulated process-wide, across all runs and all domains; the bench
   harness reads the delta around an experiment to report rounds/sec. *)
let simulated_rounds = Atomic.make 0
let total_simulated_rounds () = Atomic.get simulated_rounds

(* Rounds fast-forwarded by the silent-round skip, kept apart from
   [simulated_rounds] so rounds/sec never counts rounds the engine did not
   actually execute.  [stats.rounds] still counts skipped rounds — the
   protocol-visible clock is identical either way. *)
let skipped_rounds = Atomic.make 0
let total_skipped_rounds () = Atomic.get skipped_rounds

(* Debug probes, both read once per [run] so flipping one mid-run is
   deliberately without effect.  [inject_silence] hands every listener one
   spurious [Silence] before its real reception (the R11 silence-purity
   check in test/test_contracts.ml); [reference_mode] restores the
   reference semantics — no skip, full decide scan, [Silence] delivered to
   every listener. *)
let inject_silence = Atomic.make false
let reference_mode = Atomic.make false

(* One shard of the node range.  A lane owns the reception bytes of its
   range [lo, hi) and records its own decide results; every field is
   written by exactly one executor within a phase. *)
type 'msg lane = {
  lo : int;
  hi : int;
  tx_stack : int array;
  tx_pkt : 'msg action array;  (* the [Transmit] block of tx_stack.(i) *)
  mutable n_tx : int;
  mutable a_lo : int;  (* this round's slice of the active buffer *)
  mutable a_hi : int;
  mutable deliveries : int;  (* per-round counters, merged by coordinator *)
  mutable collisions : int;
  mutable exn_ : exn option;
  mutable failed_in : int;  (* phase in which [exn_] was raised *)
  mutable ev_tx : 'msg trace_event list;  (* consed; tracing only *)
  mutable ev_rx : 'msg trace_event list;
}

(* A counting barrier on a mutex + condvar; [phase] increments at every
   release, which is the generation ("sense") that parks late arrivals of
   the current crossing without racing the next one. *)
module Barrier = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    parties : int;
    mutable waiting : int;
    mutable phase : int;
  }

  let make parties =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      parties;
      waiting = 0;
      phase = 0;
    }

  let await b =
    Mutex.lock b.lock;
    let ph = b.phase in
    b.waiting <- b.waiting + 1;
    if b.waiting = b.parties then begin
      b.waiting <- 0;
      b.phase <- ph + 1;
      Condition.broadcast b.cond
    end
    else
      while b.phase = ph do
        Condition.wait b.cond b.lock
      done;
    Mutex.unlock b.lock
end

(* The round loop (DESIGN.md §10).  The node range is cut into [domains]
   contiguous shards (balanced by CSR edge count, [Graph.shard_cuts]); each
   simulated round runs these phases, separated by barriers when more than
   one executor takes part:

     1 decide   each lane scans its node range (or its contiguous slice of
                the active buffer), pushing transmitters with their packet
                onto a lane-local stack; a listener's reception byte goes
                from 255 (deaf) to 0.
     2 spray    owner-filtered push: every lane walks every lane's
                transmitter stack but sprays only the [lo, hi) sub-slice of
                each sorted neighbor list (one binary search per
                transmitter and shard), bumping the saturating byte
                0 → 1 → 2 and recording the first packet in [tx_act].
     3 deliver  each lane walks what it decided in reverse (its range, or
                its active slice), resets every listener's byte to 255,
                and delivers: touched listeners always, untouched ones
                ([Silence]) only under tracing or the reference probe.

   In full-scan mode a lane's listeners lie in its own range, so 2 and 3
   fuse with no barrier between them; an active set slices across ranges,
   so with more than one shard a barrier separates spray from deliver.
   The coordinator (the calling domain) runs [stop], the skip hint,
   [decide_active], the stats/metrics merge and [on_round]/[after_round]
   between rounds.  With [domains = 1] there is one lane, no pool and no
   barrier.

   Nothing but the [Received] wrappers and the protocol's own packets is
   allocated per round: the stack and bytes are reused, the [Transmit] block
   the protocol returned is stored by reference, and every inner loop is a
   [for] or a direct recursion (test/test_alloc.ml, rblint R5). *)
let run ?stats ?metrics ?on_round ?after_round ?decide_active ?next_busy_round
    ?(validate = false) ?(domains = 1) ~graph ~detection ~protocol ~stop
    ~max_rounds () =
  if domains < 1 then invalid_arg "Engine.run: domains must be >= 1";
  let n = Graph.n graph in
  let off = Graph.offsets graph and tgt = Graph.targets graph in
  (* CSR guard, once per run: every neighbour index the spray reads lies in
     [off.(t), off.(t+1)) ⊆ [0, off.(n)), and the byte-table accesses index
     by node id < n (lane ranges partition [0, n); a lane range-checks each
     active id before deciding it). *)
  if off.(n) > Array.length tgt then
    invalid_arg "Engine.run: offsets exceed target array";
  let s = match stats with Some s -> s | None -> fresh_stats () in
  let reference = Atomic.get reference_mode in
  let inject = Atomic.get inject_silence in
  let tracing = Option.is_some on_round in
  (* Traces carry every listener's reception, silent ones included. *)
  let full = reference || tracing in
  let decide_active = if reference then None else decide_active in
  let next_busy_round = if full then None else next_busy_round in
  (* Round-stamped visit marks for the [validate] distinctness check, read
     and written only by the coordinator; allocated only when on. *)
  let seen = if validate then Array.make (max n 1) (-1) else [||] in
  let shards = domains in
  let full_scan = Option.is_none decide_active in
  let split = (not full_scan) && shards > 1 in
  let cuts = Graph.shard_cuts ~align:Bitvec.bits_per_word graph ~parts:shards in
  (* Reception state, one byte per node: 255 = not listening this round,
     0 = listening and silent so far, 1 = one packet heard, 2 = collided
     (saturates).  One byte load decides a whole spray step.  [tx_act]
     holds the first sprayer's packet and is only read under byte 1, which
     the same spray step wrote, so stale entries are harmless. *)
  let st = Bytes.make (max n 1) '\255' in
  let tx_act = Array.make (max n 1) Sleep in
  let active =
    match decide_active with None -> [||] | Some _ -> Array.make (max n 1) 0
  in
  (* A lane's stack holds its worst case: its node range in full-scan
     mode, the largest active-buffer slice otherwise. *)
  let slice_cap = ((n + shards - 1) / shards) + 1 in
  let lanes =
    Array.init shards (fun j ->
        let lo = cuts.(j) and hi = cuts.(j + 1) in
        let cap = max 1 (if full_scan then hi - lo else slice_cap) in
        {
          lo;
          hi;
          tx_stack = Array.make cap 0;
          tx_pkt = Array.make cap Sleep;
          n_tx = 0;
          a_lo = 0;
          a_hi = 0;
          deliveries = 0;
          collisions = 0;
          exn_ = None;
          failed_in = 0;
          ev_tx = [];
          ev_rx = [];
        })
  in
  (* Written by the coordinator before a phase release, read by lanes after
     the barrier crossing (mutex-ordered). *)
  let cur_round = ref 0 in
  let running = ref true in
  let decide_one (lane : _ lane) round v =
    match protocol.decide ~round ~node:v with
    | Sleep -> ()
    | Listen -> Bytes.unsafe_set st v '\000'
    | Transmit msg as act ->
        lane.tx_stack.(lane.n_tx) <- v;
        lane.tx_pkt.(lane.n_tx) <- act;
        lane.n_tx <- lane.n_tx + 1;
        if tracing then lane.ev_tx <- Ev_transmit { node = v; msg } :: lane.ev_tx
  in
  let do_decide (lane : _ lane) =
    let round = !cur_round in
    lane.n_tx <- 0;
    lane.deliveries <- 0;
    lane.collisions <- 0;
    if tracing then begin
      lane.ev_tx <- [];
      lane.ev_rx <- []
    end;
    if full_scan then
      for v = lane.lo to lane.hi - 1 do
        decide_one lane round v
      done
    else
      for i = lane.a_lo to lane.a_hi - 1 do
        let v = active.(i) in
        if v < 0 || v >= n then
          invalid_arg "Engine.run: decide_active wrote a bad node id";
        decide_one lane round v
      done
  in
  (* Recursion rather than refs keeps these allocation-free. *)
  let rec some_lane_transmits j =
    j < shards && (lanes.(j).n_tx > 0 || some_lane_transmits (j + 1))
  in
  (* Smallest edge index in [a, b) whose target is >= x (neighbor slices
     are sorted). *)
  let rec lower_bound a b x =
    if a >= b then a
    else begin
      let mid = (a + b) / 2 in
      if Array.unsafe_get tgt mid < x then lower_bound (mid + 1) b x
      else lower_bound a mid x
    end
  in
  let rec spray_slice act e b hi =
    if e < b then begin
      let v = Array.unsafe_get tgt e in
      if v < hi then begin
        let c = Char.code (Bytes.unsafe_get st v) in
        if c < 2 then begin
          Bytes.unsafe_set st v (Char.unsafe_chr (c + 1));
          if c = 0 then Array.unsafe_set tx_act v act
        end;
        spray_slice act (e + 1) b hi
      end
    end
  in
  let do_spray (lane : _ lane) =
    if lane.lo < lane.hi && some_lane_transmits 0 then
      for k = 0 to shards - 1 do
        let src = lanes.(k) in
        for i = 0 to src.n_tx - 1 do
          let t = src.tx_stack.(i) in
          let b = off.(t + 1) in
          let a = if shards = 1 then off.(t) else lower_bound off.(t) b lane.lo in
          spray_slice src.tx_pkt.(i) a b lane.hi
        done
      done
  in
  (* Delivery order is pinned: descending decide order within the lane,
     lanes descending — exactly the reference engine's listener order,
     restricted to touched listeners on the fast path. *)
  let deliver_one (lane : _ lane) round v c =
    if inject then protocol.deliver ~round ~node:v Silence;
    if full || c <> 0 then begin
      let reception =
        if c = 1 then begin
          lane.deliveries <- lane.deliveries + 1;
          match Array.unsafe_get tx_act v with
          | Transmit m -> Received m
          | _ -> assert false
        end
        else if c = 2 then begin
          lane.collisions <- lane.collisions + 1;
          match detection with
          | Collision_detection -> Collision
          | No_collision_detection -> Silence
        end
        else Silence
      in
      if tracing then
        lane.ev_rx <- Ev_receive { node = v; reception } :: lane.ev_rx;
      protocol.deliver ~round ~node:v reception
    end
  in
  let slow = full || inject in
  let do_deliver (lane : _ lane) =
    let round = !cur_round in
    if full_scan then
      for v = lane.hi - 1 downto lane.lo do
        let c = Bytes.unsafe_get st v in
        if c <> '\255' then begin
          Bytes.unsafe_set st v '\255';
          if slow || c <> '\000' then deliver_one lane round v (Char.code c)
        end
      done
    else
      for i = lane.a_hi - 1 downto lane.a_lo do
        let v = active.(i) in
        let c = Bytes.unsafe_get st v in
        if c <> '\255' then begin
          Bytes.unsafe_set st v '\255';
          if slow || c <> '\000' then deliver_one lane round v (Char.code c)
        end
      done
  in
  let do_spray_deliver (lane : _ lane) =
    do_spray lane;
    do_deliver lane
  in
  let guarded p f (lane : _ lane) =
    try f lane
    with ex -> (
      match lane.exn_ with
      | None ->
          lane.exn_ <- Some ex;
          lane.failed_in <- p
      | Some _ -> ())
  in
  (* A failure skips every later phase of the round on every executor;
     each executor reads the same lane state after the same barrier, so
     they agree on the skip.  Only failures from phases [<= p] count, so a
     lane failing in the phase just started cannot be misread. *)
  let rec ok_through p j =
    j >= shards
    || ((match lanes.(j).exn_ with None -> true | Some _ -> lanes.(j).failed_in > p)
       && ok_through p (j + 1))
  in
  (* Executors: the coordinator is executor 0; pool workers (however many
     the pool could spare — possibly none) take 1..execs-1.  Executor [e]
     runs shards e, e+execs, … — ownership is per shard, so the executor
     count affects scheduling only, never results. *)
  let workers =
    if shards > 1 then Runner.Pool.borrow ~want:(shards - 1) else [||]
  in
  let execs = Array.length workers + 1 in
  let barrier = if execs > 1 then Some (Barrier.make execs) else None in
  let sync () = match barrier with Some b -> Barrier.await b | None -> () in
  let rec phase p f j =
    if j < shards then begin
      guarded p f lanes.(j);
      phase p f (j + execs)
    end
  in
  let run_phases e =
    phase 1 do_decide e;
    sync ();
    if ok_through 1 0 then
      if split then begin
        phase 2 do_spray e;
        sync ();
        if ok_through 2 0 then phase 3 do_deliver e
      end
      else phase 2 do_spray_deliver e
  in
  let worker_body e () =
    let live = ref true in
    while !live do
      sync ();
      if !running then begin
        run_phases e;
        sync ()
      end
      else live := false
    done
  in
  for t = 0 to execs - 2 do
    Runner.Pool.run_on workers.(t) (worker_body (t + 1))
  done;
  let shutdown () =
    if !running then begin
      running := false;
      sync ();
      for t = 0 to execs - 2 do
        Runner.Pool.await workers.(t) |> ignore
      done;
      Runner.Pool.release workers
    end
  in
  let rec first_exn j =
    if j >= shards then None
    else match lanes.(j).exn_ with Some _ as e -> e | None -> first_exn (j + 1)
  in
  (* Shard-order merge: totals are order-independent sums, and the event
     list is rebuilt in the reference order (transmits ascending, then
     receptions descending). *)
  let rec merge j busy rtx rdel rcol round =
    if j < shards then begin
      let lane = lanes.(j) in
      merge (j + 1)
        (busy || lane.n_tx > 0)
        (rtx + lane.n_tx) (rdel + lane.deliveries) (rcol + lane.collisions)
        round
    end
    else begin
      s.transmissions <- s.transmissions + rtx;
      s.deliveries <- s.deliveries + rdel;
      s.collisions <- s.collisions + rcol;
      s.rounds <- s.rounds + 1;
      if busy then s.busy_rounds <- s.busy_rounds + 1;
      match metrics with
      | Some m ->
          Rn_obs.Metrics.record_round m ~round ~transmissions:rtx
            ~deliveries:rdel ~collisions:rcol
      | None -> ()
    end
  in
  let skipped = ref 0 in
  let finish round outcome =
    shutdown ();
    Atomic.fetch_and_add simulated_rounds (round - !skipped) |> ignore;
    Atomic.fetch_and_add skipped_rounds !skipped |> ignore;
    outcome
  in
  let rec loop round =
    if stop ~round then finish round (Completed round)
    else if round >= max_rounds then finish round (Out_of_budget round)
    else begin
      let busy_at =
        match next_busy_round with
        | None -> round
        | Some f ->
            let r = f ~round in
            if r < round then
              invalid_arg "Engine.run: next_busy_round went backwards";
            r
      in
      if busy_at > round then begin
        (* Provably silent: no listener can observe anything but Silence,
           so only the clock ticks. *)
        incr skipped;
        merge shards false 0 0 0 round
      end
      else begin
        (match decide_active with
        | None -> ()
        | Some da ->
            let k = da ~round active in
            if k < 0 || k > n then
              invalid_arg "Engine.run: decide_active returned a bad count";
            if validate then
              for i = 0 to k - 1 do
                let v = active.(i) in
                if v >= 0 && v < n then begin
                  if seen.(v) = round then
                    invalid_arg
                      (Printf.sprintf
                         "Engine.run: decide_active repeated node id %d in \
                          round %d (the transmit-buffer contract requires \
                          distinct ids)"
                         v round);
                  seen.(v) <- round
                end
              done;
            for j = 0 to shards - 1 do
              lanes.(j).a_hi <- k * (j + 1) / shards
            done;
            for j = 1 to shards - 1 do
              lanes.(j).a_lo <- lanes.(j - 1).a_hi
            done);
        cur_round := round;
        sync ();
        run_phases 0;
        sync ();
        (match first_exn 0 with Some ex -> raise ex | None -> ());
        merge 0 false 0 0 0 round;
        match on_round with
        | Some f ->
            (* rblint:allow R5 tracing path: reached only when [on_round] is set, never in steady-state benchmarking *)
            let evs = ref [] in
            for j = 0 to shards - 1 do
              evs := List.rev_append lanes.(j).ev_rx !evs
            done;
            for j = shards - 1 downto 0 do
              evs := List.rev_append lanes.(j).ev_tx !evs
            done;
            f ~round !evs
        | None -> ()
      end;
      (match after_round with Some f -> f ~round | None -> ());
      loop (round + 1)
    end
  in
  match loop 0 with
  | outcome -> outcome
  | exception ex ->
      (* A callback or lane raised; the workers are parked at the
         round-release barrier. *)
      shutdown ();
      raise ex
(* [@@zero_alloc_hot] makes rblint (R5, dune build @lint) reject any list
   traversal or closure-allocating array iteration introduced into this
   round loop; test/test_alloc.ml checks the complementary dynamic claim
   with Gc.minor_words. *)
[@@zero_alloc_hot]
