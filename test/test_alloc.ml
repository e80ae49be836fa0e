(* Alloc-budget tests: the dynamic half of the zero-allocation invariant
   that rblint's R5 enforces statically (DESIGN.md §8).

   The engine's steady-state round loop must allocate nothing on the minor
   heap beyond the [Received] wrappers handed to successful listeners (the
   [Transmit] packets are the protocol's own, counted against it).  The
   Runner's shard loop must allocate O(1) words per item, independent of
   both the item count and the graph size.  Both are measured with
   [Gc.minor_words] deltas captured into preallocated float arrays, so the
   measurement itself allocates nothing between the marks. *)

open Rn_graph
open Rn_radio

(* The per-lane budgets below rely on lane [j] being pinned to executor
   [j], i.e. on real worker domains; on small machines the pool's
   hardware cap would otherwise degrade every lane to the calling
   domain. *)
let () =
  Atomic.set Runner.Pool.size_cap (max 8 (Atomic.get Runner.Pool.size_cap))

(* Minor-heap words allocated by [rounds] steady-state rounds, measured
   after [warmup] rounds so per-run scratch setup is excluded.  The
   "engine" group measures the reference probe (every listener delivered,
   no skip, full decide scan);
   the "sparse" group measures the default path at [~domains:1]. *)
let round_words ?(reference = false) ?decide_active ?next_busy_round ?metrics
    ~graph ~protocol ~warmup ~rounds () =
  let marks = [| 0.0; 0.0 |] in
  let after_round ~round =
    if round = warmup then marks.(0) <- Gc.minor_words ()
    else if round = warmup + rounds then marks.(1) <- Gc.minor_words ()
  in
  Atomic.set Engine.reference_mode reference;
  let (_ : Engine.outcome) =
    Fun.protect
      ~finally:(fun () -> Atomic.set Engine.reference_mode false)
      (fun () ->
        Engine.run ?decide_active ?next_busy_round ?metrics ~after_round
          ~domains:1 ~graph ~detection:Engine.Collision_detection ~protocol
          ~stop:(fun ~round:_ -> false)
          ~max_rounds:(warmup + rounds + 2) ())
  in
  marks.(1) -. marks.(0)

let engine_round_words = round_words ~reference:true
let sparse_round_words = round_words ~reference:false

let star n =
  Graph.create ~n ~edges:(List.init (n - 1) (fun i -> (0, i + 1)))

(* A quiet network — everyone listens, nobody transmits — must drive the
   round loop at exactly zero minor-heap words per round. *)
let test_quiet_round_loop () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let words = engine_round_words ~graph ~protocol ~warmup:16 ~rounds:256 () in
  Alcotest.(check (float 0.0))
    "quiet steady-state rounds allocate zero minor words" 0.0 words

(* The same zero-word bound with a metrics registry attached: record_round
   and set_phase are pure int mutation on preallocated arrays, so enabling
   observability must not cost a single word on the round loop. *)
let test_quiet_round_loop_with_metrics () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let metrics = Rn_obs.Metrics.create ~ring:1024 () in
  let words =
    engine_round_words ~metrics ~graph ~protocol ~warmup:16 ~rounds:256 ()
  in
  Alcotest.(check (float 0.0))
    "metrics-enabled quiet rounds allocate zero minor words" 0.0 words;
  Alcotest.(check bool) "registry recorded the rounds" true
    (Rn_obs.Metrics.rounds metrics >= 256)

(* A busy star: the hub transmits a preallocated packet every round, all
   leaves listen and are delivered.  The only legal per-round allocation is
   one [Received] wrapper per delivery — budget 4 words each (block + header
   + slack) and a constant per round.  A reintroduced per-transmitter or
   per-node allocation blows this budget immediately. *)
let test_busy_round_loop_delivery_budget () =
  let leaves = 63 in
  let graph = star (leaves + 1) in
  let tx = Engine.Transmit 7 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let rounds = 128 in
  let words =
    engine_round_words ~graph ~protocol ~warmup:16 ~rounds ()
  in
  let budget = float_of_int (rounds * ((4 * leaves) + 8)) in
  Alcotest.(check bool)
    (Printf.sprintf
       "busy rounds stay within the delivery budget (%.0f words <= %.0f)"
       words budget)
    true
    (words <= budget);
  (* same traffic, same budget, with the registry recording every round *)
  let metrics = Rn_obs.Metrics.create () in
  let words_m =
    engine_round_words ~metrics ~graph ~protocol ~warmup:16 ~rounds ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "metrics add no allocation (%.0f words <= %.0f)" words_m
       budget)
    true
    (words_m <= budget)

(* Allocation must track the active set, not the graph: one transmitter and
   one listener inside a 4096-node graph stay under a tiny constant per
   round even though n is large. *)
let test_round_loop_independent_of_n () =
  let n = 4096 in
  let graph = star n in
  let tx = Engine.Transmit 1 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node ->
          if node = 0 then tx
          else if node = 1 then Engine.Listen
          else Engine.Sleep);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let rounds = 128 in
  let words = engine_round_words ~graph ~protocol ~warmup:16 ~rounds () in
  let budget = float_of_int (rounds * 16) in
  Alcotest.(check bool)
    (Printf.sprintf "1 tx + 1 rx in n=4096 stays O(active) (%.0f <= %.0f)"
       words budget)
    true
    (words <= budget)

(* The same bound must hold under the [decide_active] fast path (on the
   default path: the reference probe ignores active sets by design). *)
let test_active_set_round_loop () =
  let n = 2048 in
  let graph = star n in
  let tx = Engine.Transmit 1 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let decide_active ~round:_ (buf : int array) =
    buf.(0) <- 0;
    buf.(1) <- 5;
    2
  in
  let rounds = 128 in
  let words =
    sparse_round_words ~decide_active ~graph ~protocol ~warmup:16 ~rounds ()
  in
  let budget = float_of_int (rounds * 16) in
  Alcotest.(check bool)
    (Printf.sprintf "decide_active loop stays O(active) (%.0f <= %.0f)" words
       budget)
    true
    (words <= budget)

(* Sparse quiet rounds — everyone listens, nobody transmits, Silence
   deliveries elided — must be exactly zero words per round even with the
   metrics registry recording every round. *)
let test_sparse_quiet_round_loop () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let metrics = Rn_obs.Metrics.create ~ring:1024 () in
  let words =
    sparse_round_words ~metrics ~graph ~protocol ~warmup:16 ~rounds:256 ()
  in
  Alcotest.(check (float 0.0))
    "sparse quiet rounds allocate zero minor words" 0.0 words;
  Alcotest.(check bool) "registry recorded the rounds" true
    (Rn_obs.Metrics.rounds metrics >= 256)

(* The skip fast path — every round fast-forwarded by the hint, metrics
   still recording a zero row per skipped round — must also run at zero
   words per round. *)
let test_sparse_skip_fast_path () =
  let graph = star 512 in
  let protocol =
    {
      Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let metrics = Rn_obs.Metrics.create ~ring:1024 () in
  let next_busy_round ~round = round + 1_000_000 in
  let words =
    sparse_round_words ~metrics ~next_busy_round ~graph ~protocol ~warmup:16
      ~rounds:256 ()
  in
  Alcotest.(check (float 0.0))
    "skipped rounds allocate zero minor words" 0.0 words;
  Alcotest.(check bool) "registry recorded the skipped rounds" true
    (Rn_obs.Metrics.rounds metrics >= 256)

(* Sparse busy rounds obey the same delivery-only budget as the dense
   engine: one [Received] wrapper per clean delivery, a constant per
   round, nothing proportional to n. *)
let test_sparse_busy_budget () =
  let leaves = 63 in
  let graph = star (leaves + 1) in
  let tx = Engine.Transmit 7 in
  let protocol =
    {
      Engine.decide =
        (fun ~round:_ ~node -> if node = 0 then tx else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let rounds = 128 in
  let words = sparse_round_words ~graph ~protocol ~warmup:16 ~rounds () in
  let budget = float_of_int (rounds * ((4 * leaves) + 8)) in
  Alcotest.(check bool)
    (Printf.sprintf
       "sparse busy rounds stay within the delivery budget (%.0f <= %.0f)"
       words budget)
    true
    (words <= budget)

(* Multi-domain engine ([~domains:2]), per-shard-lane budget: each lane writes Gc.minor_words
   (its executing domain's counter — lane j is pinned to executor j when
   the pool is idle) into its own row of a preallocated matrix at its first
   decide of every round.  The delta between consecutive rounds on the same
   lane is the steady-state cost of one lane-round: three barrier
   crossings plus the phase loops, all of which must be allocation-free —
   the budget only has to absorb whatever the runtime's Mutex/Condition
   path spends. *)
let test_sharded_lane_budget () =
  let n = 256 and domains = 2 in
  let graph = Gen.path n in
  let cuts =
    Graph.shard_cuts ~align:Rn_coding.Bitvec.bits_per_word graph
      ~parts:domains
  in
  Alcotest.(check bool)
    "both lanes nonempty" true
    (cuts.(1) > 0 && cuts.(2) > cuts.(1));
  let warmup = 16 and rounds = 256 in
  let total = warmup + rounds + 2 in
  let marks = Array.init domains (fun _ -> Array.make total 0.0) in
  let round_no = ref 0 in
  let protocol =
    {
      Engine.decide =
        (fun ~round ~node ->
          if node = cuts.(0) then marks.(0).(round) <- Gc.minor_words ()
          else if node = cuts.(1) then marks.(1).(round) <- Gc.minor_words ();
          Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let (_ : Engine.outcome) =
    Engine.run ~domains ~graph
      ~detection:Engine.Collision_detection ~protocol
      ~after_round:(fun ~round -> round_no := round)
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:total ()
  in
  Alcotest.(check int) "ran all rounds" (total - 1) !round_no;
  let budget = 128.0 in
  for j = 0 to domains - 1 do
    let worst = ref 0.0 in
    for r = warmup to warmup + rounds - 1 do
      let delta = marks.(j).(r + 1) -. marks.(j).(r) in
      if delta > !worst then worst := delta
    done;
    Alcotest.(check bool)
      (Printf.sprintf
         "lane %d steady-state round allocates <= %.0f words (worst %.0f)" j
         budget !worst)
      true
      (!worst <= budget)
  done

(* Whole-run budget for one standalone bipartite assignment on a fixed
   graph: everything the state machine and its engine run allocate on
   the minor heap, set-up included.  The budget is what this run took
   while every stage woke all reds and blues; the per-stage awake lists
   live in per-block buffers filled in place, so they must not raise it. *)
let test_assignment_run_budget () =
  let rng = Rn_util.Rng.create ~seed:5 in
  let n_reds = 24 and n_blues = 40 in
  let graph = Gen.bipartite_random ~rng ~reds:n_reds ~blues:n_blues ~p:0.15 in
  let reds = Array.init n_reds Fun.id
  and blues = Array.init n_blues (fun i -> n_reds + i) in
  let blue_ranks = Array.make (n_reds + n_blues) 0 in
  Array.iter (fun b -> blue_ranks.(b) <- 1 + (b mod 3)) blues;
  let rng = Rn_util.Rng.split rng in
  let marks = [| 0.0; 0.0 |] in
  marks.(0) <- Gc.minor_words ();
  let o =
    Rn_broadcast.Bipartite_assignment.run_standalone ~rng
      ~params:Rn_broadcast.Params.default ~graph ~reds ~blues ~blue_ranks ()
  in
  marks.(1) <- Gc.minor_words ();
  let words = marks.(1) -. marks.(0) in
  Alcotest.(check bool) "every blue assigned" true
    (Array.for_all
       (fun b -> o.Rn_broadcast.Bipartite_assignment.parents.(b) >= 0)
       blues);
  let budget = 113_741.0 in
  Alcotest.(check bool)
    (Printf.sprintf
       "standalone assignment allocates <= %.0f minor words (got %.0f)" budget
       words)
    true (words <= budget)

(* Recruiting keeps its member state in flat arrays reached by position,
   so a member that listens costs nothing on the minor heap: its
   [decide] (announce coin included) and every [deliver] it gets in the
   announce and claiming rounds.  The state machine is driven by hand
   over three iterations on a complete bipartite graph: every blue hears
   a red's id in the announce round and every red hears claims from two
   blues.  Words are measured around each call alone, and only calls
   that answered [Listen] count; a transmit allocates its packet. *)
let test_recruiting_listeners () =
  let module R = Rn_broadcast.Recruiting in
  let n_reds = 4 and n_blues = 8 in
  let edges =
    List.concat_map
      (fun r -> List.init n_blues (fun j -> (r, n_reds + j)))
      (List.init n_reds Fun.id)
  in
  let graph = Graph.create ~n:(n_reds + n_blues) ~edges in
  let reds = Array.init n_reds Fun.id
  and blues = Array.init n_blues (fun j -> n_reds + j) in
  let scale_n = 64 in
  let t =
    R.create ~rng:(Rn_util.Rng.create ~seed:9)
      ~params:Rn_broadcast.Params.default ~scale_n ~graph ~reds ~blues ()
  in
  let ladder = Rn_broadcast.Params.phase_len ~n:scale_n in
  let iter_len = 2 + ladder in
  let heard = Engine.Received (Rn_broadcast.Cmsg.Red_id 0) in
  let claims =
    Array.init n_reds (fun r ->
        Array.init 2 (fun k ->
            Engine.Received
              (Rn_broadcast.Cmsg.Claim { blue = n_reds + k; red = r })))
  in
  (* words, listening decides, delivers *)
  let acc = [| 0.0; 0.0; 0.0 |] in
  let measured_decide v =
    let w0 = Gc.minor_words () in
    let a = R.decide t ~node:v in
    let w1 = Gc.minor_words () in
    match a with
    | Engine.Listen ->
        acc.(0) <- acc.(0) +. (w1 -. w0);
        acc.(1) <- acc.(1) +. 1.0
    | Engine.Transmit _ | Engine.Sleep -> ()
  in
  let measured_deliver v rx =
    let w0 = Gc.minor_words () in
    R.deliver t ~node:v rx;
    let w1 = Gc.minor_words () in
    acc.(0) <- acc.(0) +. (w1 -. w0);
    acc.(2) <- acc.(2) +. 1.0
  in
  for _ = 1 to 3 * iter_len do
    let r = R.rounds_used t mod iter_len in
    Array.iter measured_decide reds;
    Array.iter measured_decide blues;
    if r = 0 then Array.iter (fun b -> measured_deliver b heard) blues
    else if r <= ladder then
      Array.iter (fun v -> Array.iter (measured_deliver v) claims.(v)) reds;
    R.advance t
  done;
  Alcotest.(check bool) "still running" false (R.finished t);
  Alcotest.(check bool)
    (Printf.sprintf "listeners exercised (%.0f decides, %.0f delivers)"
       acc.(1) acc.(2))
    true
    (acc.(1) > 0.0 && acc.(2) > 0.0);
  Alcotest.(check (float 0.0)) "listening decide/deliver: zero minor words"
    0.0 acc.(0)

(* Coding layer: a packet that cannot raise a decoder's rank is reduced
   in the decoder's own scratch row and dropped, so it must not allocate;
   a full-rank decoder returns before touching the packet's words.  An
   encode allocates the packet it returns and nothing else: the coin per
   stored row draws from an unboxed generator state. *)
let words_during f =
  let marks = [| 0.0; 0.0 |] in
  marks.(0) <- Gc.minor_words ();
  f ();
  marks.(1) <- Gc.minor_words ();
  marks.(1) -. marks.(0)

let coding_k = 64 and coding_msg_len = 100

let coding_decoder ~sources =
  let rng = Rn_util.Rng.create ~seed:11 in
  let msgs =
    Array.init coding_k (fun _ -> Rn_coding.Bitvec.random rng coding_msg_len)
  in
  let d = Rn_coding.Rlnc.create ~k:coding_k ~msg_len:coding_msg_len in
  for i = 0 to sources - 1 do
    ignore (Rn_coding.Rlnc.receive d (Rn_coding.Rlnc.source_packet ~msgs i))
  done;
  (rng, msgs, d)

let test_rlnc_receive_non_innovative () =
  let module R = Rn_coding.Rlnc in
  let reps = 200 in
  let check_zero what d packets =
    let rank = R.rank d in
    let innovative = ref false in
    let words =
      words_during (fun () ->
          for i = 0 to reps - 1 do
            if R.receive d packets.(i mod Array.length packets) then
              innovative := true
          done)
    in
    Alcotest.(check bool) (what ^ ": no packet innovative") false !innovative;
    Alcotest.(check int) (what ^ ": rank unchanged") rank (R.rank d);
    Alcotest.(check (float 0.0)) (what ^ ": zero minor words") 0.0 words
  in
  let rng, _, full = coding_decoder ~sources:coding_k in
  check_zero "full rank" full
    (Array.init 8 (fun _ -> Option.get (R.encode rng full)));
  (* rank 40 of 64: combinations of stored rows, a duplicate source and
     the zero packet are all dependent *)
  let rng, msgs, part = coding_decoder ~sources:40 in
  let dependent =
    Array.append
      (Array.init 6 (fun _ -> Option.get (R.encode rng part)))
      [|
        R.source_packet ~msgs 17;
        R.packet_of_coeffs ~msgs (Rn_coding.Bitvec.create coding_k);
      |]
  in
  check_zero "rank-deficient, dependent" part dependent

(* The generator's state is unboxed, so a draw consumed inside [Rng]
   allocates nothing: protocols flip these coins per node per round. *)
let test_rng_draws () =
  let rng = Rn_util.Rng.create ~seed:3 in
  let hits = ref 0 in
  let words =
    words_during (fun () ->
        for i = 1 to 1000 do
          if Rn_util.Rng.bool rng then incr hits;
          if Rn_util.Rng.bernoulli rng 0.3 then incr hits;
          hits := !hits + Rn_util.Rng.int rng (1 + (i land 63))
        done)
  in
  Alcotest.(check bool) "draws happened" true (!hits > 0);
  Alcotest.(check (float 0.0)) "int/bool/bernoulli draws: zero minor words"
    0.0 words

let test_rlnc_encode_budget () =
  let module R = Rn_coding.Rlnc in
  let reps = 200 in
  let wf = Rn_coding.Bitvec.words_for in
  (* [Some] box + packet record + two [Bitvec] records + the two word
     arrays, each with its header *)
  let packet_words =
    2 + 3 + (2 * 3) + (1 + wf coding_k) + (1 + wf coding_msg_len)
  in
  List.iter
    (fun sources ->
      let rng, _, d = coding_decoder ~sources in
      let words =
        words_during (fun () ->
            for _ = 1 to reps do
              ignore (R.encode rng d)
            done)
      in
      let budget = float_of_int (reps * packet_words) in
      Alcotest.(check bool)
        (Printf.sprintf
           "rank %d: %d encodes allocate <= their packets (%.0f words <= %.0f)"
           sources reps words budget)
        true (words <= budget))
    [ 1; 40; coding_k ]

(* Runner shard loop: every domain lane records Gc.minor_words (its own
   domain's counter) at each item it processes; the delta between two
   consecutive items of the same lane is the steady-state cost of one
   while-loop iteration.  Since [map] rides on [map_array]'s preallocated
   lane slots there is no per-element [Some] cell any more — the loop
   body is a bare store. *)
let test_runner_shard_loop () =
  let k = 1024 and d = 4 in
  let marks = Array.make k 0.0 in
  let items = List.init k (fun i -> i) in
  let f i =
    marks.(i) <- Gc.minor_words ();
    i * 2
  in
  let out = Runner.map ~domains:d f items in
  Alcotest.(check int) "all items mapped" k (List.length out);
  let worst = ref 0.0 in
  (* skip each lane's first stride: domain startup allocs land before it *)
  for i = d to k - d - 1 do
    let delta = marks.(i + d) -. marks.(i) in
    if delta > !worst then worst := delta
  done;
  Alcotest.(check bool)
    (Printf.sprintf "shard-loop iteration allocates <= 8 words (worst %.0f)"
       !worst)
    true
    (!worst <= 8.0)

(* map_array steady-state dispatch: the array-in/array-out entry point has
   no list conversion at either end, so between two consecutive items of a
   lane the only allocation permitted is whatever [f] itself does (here:
   none — unboxed int results into the preallocated lane array). *)
let test_runner_map_array_dispatch () =
  let k = 2048 and d = 4 in
  let marks = Array.make k 0.0 in
  let items = Array.init k (fun i -> i) in
  let f i =
    marks.(i) <- Gc.minor_words ();
    i * 3
  in
  let out = Runner.map_array ~domains:d f items in
  Alcotest.(check int) "all items mapped" k (Array.length out);
  Alcotest.(check int) "input order restored" 51 out.(17);
  let worst = ref 0.0 in
  for i = d to k - d - 1 do
    let delta = marks.(i + d) -. marks.(i) in
    if delta > !worst then worst := delta
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "map_array dispatch iteration allocates <= 8 words (worst %.0f)"
       !worst)
    true
    (!worst <= 8.0)

(* Serial path budget: the d <= 1 fast path may allocate the result list
   but must stay O(1) words per item. *)
let test_runner_serial_budget () =
  let k = 8192 in
  let items = List.init k (fun i -> i) in
  let marks = [| 0.0; 0.0 |] in
  marks.(0) <- Gc.minor_words ();
  let out = Runner.map ~domains:1 (fun i -> i + 1) items in
  marks.(1) <- Gc.minor_words ();
  Alcotest.(check int) "all items mapped" k (List.length out);
  let per_item = (marks.(1) -. marks.(0)) /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "serial map allocates <= 32 words/item (got %.1f)"
       per_item)
    true
    (per_item <= 32.0)

let () =
  Alcotest.run "alloc"
    [
      ( "engine",
        [
          Alcotest.test_case "quiet loop is allocation-free" `Quick
            test_quiet_round_loop;
          Alcotest.test_case "quiet loop with metrics" `Quick
            test_quiet_round_loop_with_metrics;
          Alcotest.test_case "busy loop: deliveries only" `Quick
            test_busy_round_loop_delivery_budget;
          Alcotest.test_case "allocation independent of n" `Quick
            test_round_loop_independent_of_n;
          Alcotest.test_case "decide_active loop" `Quick
            test_active_set_round_loop;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "quiet loop with metrics" `Quick
            test_sparse_quiet_round_loop;
          Alcotest.test_case "skip fast path with metrics" `Quick
            test_sparse_skip_fast_path;
          Alcotest.test_case "busy loop: deliveries only" `Quick
            test_sparse_busy_budget;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "lane round budget" `Quick
            test_sharded_lane_budget;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "standalone run budget" `Quick
            test_assignment_run_budget;
          Alcotest.test_case "recruiting listeners zero-alloc" `Quick
            test_recruiting_listeners;
        ] );
      ( "coding",
        [
          Alcotest.test_case "non-innovative receive zero-alloc" `Quick
            test_rlnc_receive_non_innovative;
          Alcotest.test_case "encode allocates its packet only" `Quick
            test_rlnc_encode_budget;
        ] );
      ( "rng",
        [ Alcotest.test_case "draws zero-alloc" `Quick test_rng_draws ] );
      ( "runner",
        [
          Alcotest.test_case "shard loop O(1)/item" `Quick
            test_runner_shard_loop;
          Alcotest.test_case "map_array dispatch zero-alloc" `Quick
            test_runner_map_array_dispatch;
          Alcotest.test_case "serial path budget" `Quick
            test_runner_serial_budget;
        ] );
    ]
