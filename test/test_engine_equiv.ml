(* Differential suite for [Engine.run] against [Reference], a verbatim copy
   of the seed list-based engine compiled against the same action and
   reception types.

   - Under tracing or the reference probe ([Engine.reference_mode]) a run
     must match [Reference] strictly: outcome, stats, after_round sequence,
     traced events and every deliver call, order included (the global call
     order is compared at domains = 1; above that, deliver calls run in
     parallel and the traced events carry the order).
   - On the fast path a run must match [Reference] modulo the elided
     zero-transmitter [Silence] deliveries — per-node logs and, at
     domains = 1, the global deliver order with silences dropped — and its
     metrics export must be byte-identical to the probe run's.

   The matrix covers domains 1/2/4 × skip hint × active set × trace ×
   probe, with CD/no-CD drawn per case; the named properties below are
   slices of it.  The deliver log is an array indexed by node, so the
   observation respects the engine's per-node-state contract under
   parallel delivery. *)

open Rn_util
open Rn_graph
module Topo = Rn_graph.Gen
open Rn_radio

module Reference = struct
  open Engine

  let run ?stats ?on_round ?after_round ~graph ~detection ~protocol ~stop
      ~max_rounds () =
    let n = Graph.n graph in
    let tx_count = Array.make n 0 in
    let tx_msg = Array.make n None in
    let listening = Array.make n false in
    let transmitters = ref [] in
    let listeners = ref [] in
    let touched = ref [] in
    let record_stat f = match stats with None -> () | Some s -> f s in
    let rec loop round =
      if stop ~round then Completed round
      else if round >= max_rounds then Out_of_budget round
      else begin
        transmitters := [];
        listeners := [];
        let events = ref [] in
        let tracing = on_round <> None in
        for v = 0 to n - 1 do
          match protocol.decide ~round ~node:v with
          | Sleep -> listening.(v) <- false
          | Listen ->
              listening.(v) <- true;
              listeners := v :: !listeners
          | Transmit msg ->
              listening.(v) <- false;
              transmitters := (v, msg) :: !transmitters;
              if tracing then events := Ev_transmit { node = v; msg } :: !events
        done;
        let tx_happened = !transmitters <> [] in
        List.iter
          (fun (t, msg) ->
            record_stat (fun s -> s.transmissions <- s.transmissions + 1);
            Graph.iter_neighbors graph t (fun v ->
                if listening.(v) then begin
                  if tx_count.(v) = 0 then begin
                    touched := v :: !touched;
                    tx_msg.(v) <- Some msg
                  end;
                  tx_count.(v) <- tx_count.(v) + 1
                end))
          !transmitters;
        List.iter
          (fun v ->
            let reception =
              match tx_count.(v) with
              | 0 -> Silence
              | 1 -> (
                  record_stat (fun s -> s.deliveries <- s.deliveries + 1);
                  match tx_msg.(v) with
                  | Some m -> Received m
                  | None -> assert false)
              | _ -> (
                  record_stat (fun s -> s.collisions <- s.collisions + 1);
                  match detection with
                  | Collision_detection -> Collision
                  | No_collision_detection -> Silence)
            in
            if tracing then events := Ev_receive { node = v; reception } :: !events;
            protocol.deliver ~round ~node:v reception)
          !listeners;
        List.iter
          (fun v ->
            tx_count.(v) <- 0;
            tx_msg.(v) <- None)
          !touched;
        touched := [];
        record_stat (fun s ->
            s.rounds <- s.rounds + 1;
            if tx_happened then s.busy_rounds <- s.busy_rounds + 1);
        (match on_round with
        | Some f -> f ~round (List.rev !events)
        | None -> ());
        (match after_round with Some f -> f ~round | None -> ());
        loop (round + 1)
      end
    in
    loop 0
end

(* Equivalence must hold under true multi-domain execution; on small
   machines the pool's hardware cap would otherwise degrade every
   multi-domain run to the calling domain. *)
let () =
  Atomic.set Runner.Pool.size_cap (max 8 (Atomic.get Runner.Pool.size_cap))

let with_reference f =
  Atomic.set Engine.reference_mode true;
  Fun.protect ~finally:(fun () -> Atomic.set Engine.reference_mode false) f

(* A random but deterministic schedule: action of (round, node) precomputed
   from the seed, messages tagged so any cross-wiring is visible.  With
   [~quiet:true] three rounds in four have no transmitter, so the skip hint
   has real stretches to fast-forward. *)
let make_script ?(quiet = false) ~rng ~n ~rounds () =
  Array.init rounds (fun r ->
      if quiet && Rng.int rng 4 <> 0 then
        Array.init n (fun _ ->
            if Rng.int rng 2 = 0 then Engine.Sleep else Engine.Listen)
      else
        Array.init n (fun v ->
            match Rng.int rng 4 with
            | 0 -> Engine.Sleep
            | 1 | 2 -> Engine.Listen
            | _ -> Engine.Transmit ((r * 10_000) + v)))

let script_decide script ~round ~node =
  if round < Array.length script then script.(round).(node) else Engine.Listen

(* A sound skip hint: the next round >= r with a Transmit action
   (max_rounds when the tail is silent). *)
let script_hint script max_rounds =
  let busy r =
    r < Array.length script
    && Array.exists (function Engine.Transmit _ -> true | _ -> false) script.(r)
  in
  let next = Array.make (max_rounds + 1) max_rounds in
  for r = max_rounds - 1 downto 0 do
    next.(r) <- (if busy r then r else next.(r + 1))
  done;
  fun ~round -> if round >= max_rounds then round else next.(round)

(* Active set = the non-Sleep nodes of the script, ascending (everyone once
   the script runs out); [all_nodes] enumerates the full node set. *)
let awake_set script n ~round (buf : int array) =
  let k = ref 0 in
  for v = 0 to n - 1 do
    match script_decide script ~round ~node:v with
    | Engine.Sleep -> ()
    | Engine.Listen | Engine.Transmit _ ->
        buf.(!k) <- v;
        incr k
  done;
  !k

let all_nodes n ~round:_ (buf : int array) =
  for v = 0 to n - 1 do
    buf.(v) <- v
  done;
  n

type 'msg observation = {
  outcome : Engine.outcome;
  logs : (int * 'msg Engine.reception) list array;  (* per node *)
  seq : (int * int * 'msg Engine.reception) list option;  (* domains = 1 *)
  events : (int * 'msg Engine.trace_event list) list;
  after : int list;
  stats : Engine.stats;
  export : string;  (* full metrics export, ring rows included *)
}

let export_fingerprint m =
  String.concat "\n"
    (Rn_obs.Export.round_jsonl m
    @ Rn_obs.Export.phases_jsonl m
    @ [ Rn_obs.Export.summary_json m ])

(* [run] drives one engine over the script; the observation is the same
   for [Reference] and [Engine.run]. *)
let observing ~n ~serial ~script run =
  let logs = Array.make (max n 1) [] in
  let seq = ref [] and events = ref [] and after = ref [] in
  let stats = Engine.fresh_stats () in
  let deliver ~round ~node reception =
    logs.(node) <- (round, reception) :: logs.(node);
    if serial then seq := (round, node, reception) :: !seq
  in
  let outcome, export =
    run ~stats
      ~on_round:(fun ~round evs -> events := (round, evs) :: !events)
      ~after_round:(fun ~round -> after := round :: !after)
      ~protocol:{ Engine.decide = script_decide script; deliver }
  in
  let seq = if serial then Some !seq else None in
  { outcome; logs; seq; events = !events; after = !after; stats; export }

let observe_ref ~graph ~detection ~script ~max_rounds =
  observing ~n:(Graph.n graph) ~serial:true ~script
    (fun ~stats ~on_round ~after_round ~protocol ->
      ( Reference.run ~stats ~on_round ~after_round ~graph ~detection ~protocol
          ~stop:(fun ~round:_ -> false)
          ~max_rounds (),
        "" ))

type active = No_active | Awake | All_nodes

type cfg = {
  domains : int;
  hint : bool;
  active : active;
  trace : bool;
  reference : bool;
}

let fast = { domains = 1; hint = false; active = No_active; trace = false; reference = false }

let observe cfg ~graph ~detection ~script ~max_rounds =
  let n = Graph.n graph in
  let decide_active =
    match cfg.active with
    | No_active -> None
    | Awake -> Some (awake_set script n)
    | All_nodes -> Some (all_nodes n)
  in
  let next_busy_round =
    if cfg.hint then Some (script_hint script max_rounds) else None
  in
  let go () =
    observing ~n ~serial:(cfg.domains = 1) ~script
      (fun ~stats ~on_round ~after_round ~protocol ->
        let metrics = Rn_obs.Metrics.create ~ring:(max_rounds + 1) () in
        let on_round = if cfg.trace then Some on_round else None in
        let outcome =
          Engine.run ~stats ~metrics ?on_round ~after_round ?decide_active
            ?next_busy_round ~validate:true ~domains:cfg.domains ~graph
            ~detection ~protocol
            ~stop:(fun ~round:_ -> false)
            ~max_rounds ()
        in
        (outcome, export_fingerprint metrics))
  in
  if cfg.reference then with_reference go else go ()

let drop_silence l = List.filter (fun (_, r) -> r <> Engine.Silence) l

let strict r o ~trace =
  r.outcome = o.outcome && r.logs = o.logs && r.after = o.after
  && r.stats = o.stats
  && (o.seq = None || r.seq = o.seq)
  && ((not trace) || r.events = o.events)

let modulo_silence r o =
  r.outcome = o.outcome
  && Array.map drop_silence r.logs = Array.map drop_silence o.logs
  && r.after = o.after && r.stats = o.stats
  &&
  let audible = Option.map (List.filter (fun (_, _, x) -> x <> Engine.Silence)) in
  o.seq = None || audible r.seq = audible o.seq

(* Every configuration against the seed engine, and every metrics export
   against the probe run's. *)
let agrees cfgs (graph, script, detection, max_rounds) =
  let r = observe_ref ~graph ~detection ~script ~max_rounds in
  let base =
    observe { fast with reference = true } ~graph ~detection ~script
      ~max_rounds
  in
  List.for_all
    (fun cfg ->
      let o = observe cfg ~graph ~detection ~script ~max_rounds in
      (if cfg.trace || cfg.reference then strict r o ~trace:cfg.trace
       else modulo_silence r o)
      && String.equal base.export o.export)
    cfgs

let matrix ?(domains = [ 1; 2; 4 ]) ?(hint = [ false; true ])
    ?(active = [ No_active; Awake ]) ?(trace = [ false; true ])
    ?(reference = [ false; true ]) () =
  List.concat_map
    (fun domains ->
      List.concat_map
        (fun hint ->
          List.concat_map
            (fun active ->
              List.concat_map
                (fun trace ->
                  List.map
                    (fun reference -> { domains; hint; active; trace; reference })
                    reference)
                trace)
            active)
        hint)
    domains

let arb_case =
  QCheck.make
    ~print:(fun (n, extra, rounds, seed, cd) ->
      Printf.sprintf "(n=%d,extra=%d,rounds=%d,seed=%d,cd=%b)" n extra rounds
        seed cd)
    QCheck.Gen.(
      tup5 (int_range 2 40) (int_range 0 30) (int_range 1 12)
        (int_range 0 100_000) bool)

let setup ?quiet (n, extra, rounds, seed, cd) =
  let rng = Rng.create ~seed in
  let g = Topo.random_connected ~rng ~n ~extra in
  let script = make_script ?quiet ~rng ~n ~rounds () in
  let detection =
    if cd then Engine.Collision_detection else Engine.No_collision_detection
  in
  (g, script, detection, rounds)

let prop ?quiet ~name ~count cfgs =
  QCheck.Test.make ~name ~count arb_case (fun case ->
      agrees cfgs (setup ?quiet case))

let qcheck_tests =
  let open QCheck in
  [
    prop ~quiet:true ~count:60
      ~name:"engine ≡ seed engine: domains 1/2/4 × hint × active set × trace × probe"
      (matrix ());
    prop ~count:300 ~name:"engine trace-equivalent to seed engine"
      [ { fast with trace = true }; { fast with reference = true } ];
    prop ~count:150 ~name:"decide_active(full set) ≡ full scan"
      [ { fast with active = All_nodes }; { fast with active = All_nodes; trace = true } ];
    prop ~count:150 ~name:"decide_active(awake set) ≡ full scan"
      [ { fast with active = Awake }; { fast with active = Awake; trace = true } ];
    prop ~count:200 ~name:"sharded ≡ serial (full scan), domains 1/2/4"
      (matrix ~hint:[ false ] ~active:[ No_active ] ~reference:[ false ] ());
    prop ~count:150 ~name:"sharded ≡ serial (decide_active), domains 1/2/4"
      (matrix ~hint:[ false ] ~active:[ Awake ] ~reference:[ false ] ());
    (* Degenerate sharding: more shards than nodes — most lanes own
       nothing (and in active mode most slices are empty). *)
    Test.make ~name:"sharded ≡ serial with domains > n" ~count:80
      (pair arb_case (int_range 1 12))
      (fun (((n, _, _, _, _) as case), extra_domains) ->
        agrees
          (matrix ~domains:[ n + extra_domains ] ~hint:[ false ]
             ~reference:[ false ] ())
          (setup case));
    (* The parallel runner must be bit-identical to a serial map. *)
    Test.make ~name:"Runner.map_seeds ≡ serial map" ~count:50
      (pair (int_range 1 20) (int_range 0 10_000))
      (fun (k, seed0) ->
        let seeds = List.init k (fun i -> seed0 + i) in
        let trial ~seed =
          let rng = Rng.create ~seed in
          let g = Topo.random_connected ~rng ~n:12 ~extra:8 in
          let script = make_script ~rng ~n:12 ~rounds:6 () in
          observe fast ~graph:g ~detection:Engine.Collision_detection ~script
            ~max_rounds:6
        in
        let serial = List.map (fun seed -> trial ~seed) seeds in
        let par2 = Runner.map_seeds ~domains:2 ~seeds trial in
        let par4 = Runner.map_seeds ~domains:4 ~seeds trial in
        serial = par2 && serial = par4);
  ]

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let null_protocol () =
  {
    Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
    deliver = (fun ~round:_ ~node:_ _ -> ());
  }

let run_listen ?domains ?decide_active ?next_busy_round ?(max_rounds = 1) g =
  Engine.run ?domains ?decide_active ?next_busy_round ~graph:g
    ~detection:Engine.Collision_detection ~protocol:(null_protocol ())
    ~stop:(fun ~round:_ -> false)
    ~max_rounds ()

let check_agrees ?(active = [ No_active; Awake ]) ~graph ~detection ~script
    ~max_rounds domains =
  Alcotest.(check bool)
    "matches the seed engine" true
    (agrees
       (matrix ~domains ~hint:[ false; true ] ~active ())
       (graph, script, detection, max_rounds))

let test_active_set_sleeps_rest () =
  (* Nodes outside the active set sleep: on a path 0-1-2 where the script
     says everyone listens and node 0 transmits, an active set of {0, 1}
     must leave node 2 asleep (no deliver callback). *)
  let g = Topo.path 3 in
  let log = ref [] in
  let decide ~round:_ ~node =
    if node = 0 then Engine.Transmit 7 else Engine.Listen
  in
  let deliver ~round:_ ~node reception = log := (node, reception) :: !log in
  ignore
    (Engine.run ~graph:g ~detection:Engine.Collision_detection
       ~protocol:{ Engine.decide; deliver }
       ~decide_active:(fun ~round:_ buf ->
         buf.(0) <- 0;
         buf.(1) <- 1;
         2)
       ~stop:(fun ~round:_ -> false)
       ~max_rounds:1 ());
  match !log with
  | [ (1, Engine.Received 7) ] -> ()
  | _ -> Alcotest.fail "only node 1 should be delivered, receiving 7"

let test_active_set_bad_id () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "out-of-range id, domains=%d" domains)
        (Invalid_argument "Engine.run: decide_active wrote a bad node id")
        (fun () ->
          ignore
            (run_listen ~domains (Topo.path 3)
               ~decide_active:(fun ~round:_ buf ->
                 buf.(0) <- 5;
                 1))))
    [ 1; 3 ]

let test_active_set_bad_count () =
  Alcotest.check_raises "count > n rejected"
    (Invalid_argument "Engine.run: decide_active returned a bad count")
    (fun () ->
      ignore
        (run_listen ~domains:2 (Topo.path 3) ~decide_active:(fun ~round:_ _ -> 17)))

let test_domains_must_be_positive () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Engine.run: domains must be >= 1") (fun () ->
      ignore (run_listen ~domains:0 (Topo.path 3)))

(* decide must never run during a skipped stretch, and after_round fires on
   every round, skipped or not. *)
let test_skip_elides_decide () =
  let n = 5 in
  let g = Topo.path n in
  let calls = Array.make 16 0 in
  let p =
    {
      Engine.decide =
        (fun ~round ~node ->
          calls.(round) <- calls.(round) + 1;
          if (round = 0 || round = 9) && node = 2 then Engine.Transmit round
          else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let hint ~round = if round = 0 then 0 else if round <= 9 then 9 else round in
  let after = ref [] in
  let outcome =
    Engine.run ~next_busy_round:hint
      ~after_round:(fun ~round -> after := round :: !after)
      ~graph:g ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:12 ()
  in
  Alcotest.(check bool) "out of budget" true (outcome = Engine.Out_of_budget 12);
  for r = 0 to 11 do
    let expected = if r >= 1 && r <= 8 then 0 else n in
    Alcotest.(check int) (Printf.sprintf "decide calls round %d" r) expected
      calls.(r)
  done;
  Alcotest.(check (list int)) "after_round every round"
    (List.init 12 (fun i -> 11 - i))
    !after

(* stop is checked before each round, including inside a skipped stretch. *)
let test_stop_mid_stretch () =
  let outcome =
    Engine.run
      ~next_busy_round:(fun ~round:_ -> 1_000_000)
      ~graph:(Topo.path 4) ~detection:Engine.Collision_detection
      ~protocol:(null_protocol ())
      ~stop:(fun ~round -> round = 5)
      ~max_rounds:100 ()
  in
  Alcotest.(check bool) "completed at 5" true (outcome = Engine.Completed 5)

let test_backwards_hint_raises () =
  Alcotest.check_raises "backwards hint rejected"
    (Invalid_argument "Engine.run: next_busy_round went backwards") (fun () ->
      ignore
        (run_listen ~max_rounds:4
           ~next_busy_round:(fun ~round -> round - 1)
           (Topo.path 3)))

(* A hint that lies — claims silence over rounds where the protocol would
   transmit — is *obeyed*, not detected: the engine skips exactly so it
   can avoid asking every node, so it cannot check the claim.  Soundness
   is the protocol's obligation (DESIGN §10). *)
let test_lying_hint_is_obeyed () =
  let stats = Engine.fresh_stats () in
  let p =
    {
      Engine.decide = (fun ~round ~node:_ -> Engine.Transmit round);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let outcome =
    Engine.run ~stats
      ~next_busy_round:(fun ~round:_ -> max_int)
      ~graph:(Topo.path 4) ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:50 ()
  in
  Alcotest.(check bool) "ran to budget" true (outcome = Engine.Out_of_budget 50);
  Alcotest.(check int) "clock still ticked" 50 stats.Engine.rounds;
  Alcotest.(check int) "no transmissions simulated" 0 stats.Engine.transmissions

(* Skipped rounds land in the skipped tally, simulated rounds in the
   simulated tally, and they partition stats.rounds. *)
let test_honest_accounting () =
  let p =
    {
      Engine.decide =
        (fun ~round ~node ->
          if round mod 10 = 0 && node = 0 then Engine.Transmit round
          else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  let hint ~round =
    if round mod 10 = 0 then round else round + (10 - (round mod 10))
  in
  let stats = Engine.fresh_stats () in
  let sim0 = Engine.total_simulated_rounds () in
  let skip0 = Engine.total_skipped_rounds () in
  let outcome =
    Engine.run ~stats ~next_busy_round:hint ~graph:(Topo.path 6)
      ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:100 ()
  in
  let sim = Engine.total_simulated_rounds () - sim0 in
  let skip = Engine.total_skipped_rounds () - skip0 in
  Alcotest.(check bool) "budget" true (outcome = Engine.Out_of_budget 100);
  Alcotest.(check int) "clock counts both" 100 stats.Engine.rounds;
  Alcotest.(check int) "simulated = busy rounds only" 10 sim;
  Alcotest.(check int) "skipped = the other 90" 90 skip


let test_single_node domains () =
  check_agrees ~graph:(Topo.path 1) ~detection:Engine.Collision_detection
    ~script:[| [| Engine.Transmit 3 |]; [| Engine.Listen |]; [| Engine.Sleep |] |]
    ~max_rounds:3 domains

let test_n_less_than_domains () =
  let script = make_script ~rng:(Rng.create ~seed:7) ~n:2 ~rounds:6 () in
  check_agrees ~graph:(Topo.path 2) ~detection:Engine.No_collision_detection
    ~script ~max_rounds:6 [ 4; 7 ]

let test_empty_shards_star () =
  (* A star's edge mass sits on the hub, so word-aligned cuts collapse and
     several interior shards own zero nodes; results must not care. *)
  let n = 100 in
  let script = make_script ~rng:(Rng.create ~seed:11) ~n ~rounds:8 () in
  check_agrees ~active:[ No_active; All_nodes ] ~graph:(Topo.star n)
    ~detection:Engine.Collision_detection ~script ~max_rounds:8 [ 2; 8; 64 ]

(* A protocol exception raised inside a lane must shut the pool down
   cleanly and resurface in the caller, regardless of which lanes also
   failed. *)
exception Boom of int

let test_lane_exception_propagates () =
  let p =
    {
      Engine.decide =
        (fun ~round ~node ->
          if round = 2 && node >= 20 then raise (Boom node) else Engine.Listen);
      deliver = (fun ~round:_ ~node:_ _ -> ());
    }
  in
  List.iter
    (fun domains ->
      match
        Engine.run ~domains ~graph:(Topo.path 40)
          ~detection:Engine.Collision_detection ~protocol:p
          ~stop:(fun ~round:_ -> false)
          ~max_rounds:10 ()
      with
      | _ -> Alcotest.failf "domains=%d: expected Boom" domains
      | exception Boom _ -> ())
    [ 1; 2; 4 ];
  (* The pool must still be usable after the failed run. *)
  let script = Array.init 3 (fun _ -> Array.make 8 Engine.Listen) in
  check_agrees ~graph:(Topo.path 8) ~detection:Engine.Collision_detection
    ~script ~max_rounds:3 [ 4 ]

(* Decay end-to-end — atomic completion count and all — across shard
   counts. *)
let test_decay_integration () =
  let open Rn_broadcast in
  List.iter
    (fun seed ->
      let mk () = Rng.create ~seed in
      let graph = Topo.layered_random ~rng:(mk ()) ~depth:6 ~width:12 ~p:0.4 in
      let run domains =
        let r = Decay.broadcast ?domains ~rng:(mk ()) ~graph ~source:0 () in
        (r.Decay.outcome, r.Decay.received_round, r.Decay.stats)
      in
      let base = run None in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "seed=%d domains=%d ≡ serial" seed d)
            true
            (base = run (Some d)))
        [ 1; 2; 3; 4 ])
    [ 1; 2; 3 ]

(* Wrapper-level equivalence: each protocol wrapper must give identical
   results on the default path and under the reference probe from the same
   seed — the per-node RNG streams must advance exactly as under the full
   scan even though the default path elides sleeping nodes' decides and
   fast-forwards silent stretches. *)
let wrapper_case name run =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) "result record" true (with_reference run = run ()))

let wrapper_graph ~seed ~n ~extra =
  Topo.random_connected ~rng:(Rng.create ~seed) ~n ~extra

let halves n = (Array.init (n / 2) Fun.id, Array.init (n - (n / 2)) (fun i -> (n / 2) + i))

let wrapper_tests =
  let open Rn_broadcast in
  [
    wrapper_case "Decay dense ≡ sparse" (fun () ->
        let graph = wrapper_graph ~seed:421 ~n:60 ~extra:40 in
        let r = Decay.broadcast ~rng:(Rng.create ~seed:7) ~graph ~source:0 () in
        (r.Decay.outcome, r.Decay.received_round, r.Decay.stats));
    wrapper_case "CR baseline dense ≡ sparse" (fun () ->
        let graph = wrapper_graph ~seed:422 ~n:60 ~extra:30 in
        let r =
          Baselines.cr_broadcast ~rng:(Rng.create ~seed:9) ~graph ~source:0
            ~diameter:8 ()
        in
        (r.Decay.outcome, r.Decay.received_round, r.Decay.stats));
    wrapper_case "Recruiting dense ≡ sparse" (fun () ->
        let reds, blues = halves 40 in
        Recruiting.run_standalone ~rng:(Rng.create ~seed:11)
          ~params:Params.default
          ~graph:(wrapper_graph ~seed:423 ~n:40 ~extra:60)
          ~reds ~blues ());
    wrapper_case "Bipartite dense ≡ sparse" (fun () ->
        let reds, blues = halves 40 in
        Bipartite_assignment.run_standalone ~rng:(Rng.create ~seed:13)
          ~params:Params.default
          ~graph:(wrapper_graph ~seed:424 ~n:40 ~extra:60)
          ~reds ~blues ~blue_ranks:(Array.make 40 1) ());
    wrapper_case "GST construct dense ≡ sparse" (fun () ->
        let graph = wrapper_graph ~seed:425 ~n:50 ~extra:50 in
        List.map
          (fun mode ->
            Gst_distributed.construct ~mode ~learn_vd:true
              ~rng:(Rng.create ~seed:17) ~graph ~roots:[| 0 |] ())
          [ Gst_distributed.Sequential; Gst_distributed.Pipelined ]);
    wrapper_case "Thm 1.1 pipeline dense ≡ sparse" (fun () ->
        let r =
          Single_broadcast.run ~rng:(Rng.create ~seed:19)
            ~graph:(wrapper_graph ~seed:426 ~n:50 ~extra:40)
            ~source:0 ()
        in
        assert r.Single_broadcast.delivered;
        r);
    wrapper_case "Thm 1.3 pipeline dense ≡ sparse" (fun () ->
        let graph = wrapper_graph ~seed:427 ~n:40 ~extra:40 in
        ( Multi_broadcast.unknown ~rng:(Rng.create ~seed:23) ~graph ~source:0
            ~k:4 (),
          Multi_broadcast.known ~rng:(Rng.create ~seed:29) ~graph ~source:0
            ~k:4 () ));
  ]

(* The same equivalence at pipelining scale: layered graphs deep enough
   for pipelined slots to overlap and for recruiting parts 2/3 and Stage
   III to run.  The reference probe's full decide scan asks every node,
   so a node wrongly left out of an assignment stage's awake list shows
   up as a diverging result. *)
let layered_pipeline_prop =
  let open Rn_broadcast in
  QCheck.Test.make ~count:30
    ~name:"GST construct + Thm 1.1 on layered graphs: default ≡ probe"
    QCheck.(
      triple (int_range 6 12) (int_range 4 10) (int_range 0 100_000))
    (fun (depth, width, seed) ->
      let graph =
        Topo.layered_random ~rng:(Rng.create ~seed) ~depth ~width ~p:0.3
      in
      let run () =
        ( List.map
            (fun mode ->
              Gst_distributed.construct ~mode ~learn_vd:true
                ~rng:(Rng.create ~seed:(seed + 1)) ~graph ~roots:[| 0 |] ())
            [ Gst_distributed.Sequential; Gst_distributed.Pipelined ],
          Single_broadcast.run ~rng:(Rng.create ~seed:(seed + 2)) ~graph
            ~source:0 () )
      in
      with_reference run = run ())

(* Properties of the default path's silent-round skip and elided
   [Silence] delivery, reported next to the skip-contract cases. *)
let skip_qcheck_tests =
  let open QCheck in
  [
    prop ~count:300 ~name:"sparse ≡ dense (full scan)" [ fast ];
    prop ~count:200 ~name:"sparse ≡ dense (decide_active)"
      [ { fast with active = Awake } ];
    prop ~quiet:true ~count:300
      ~name:"sparse+skip ≡ dense (sparse schedules, ±decide_active)"
      (matrix ~domains:[ 1 ] ~hint:[ true ] ~trace:[ false ] ~reference:[ false ] ());
    prop ~count:150 ~name:"sparse tracing ≡ dense tracing (strict)"
      (matrix ~domains:[ 1 ] ~trace:[ true ] ~reference:[ false ] ());
    (* A "useless" hint (never promises silence) must change nothing. *)
    Test.make ~name:"sparse with hint=round ≡ sparse without" ~count:100
      arb_case
      (fun case ->
        let graph, script, detection, max_rounds = setup case in
        let run next_busy_round =
          observing ~n:(Graph.n graph) ~serial:true ~script
            (fun ~stats ~on_round:_ ~after_round ~protocol ->
              ( Engine.run ~stats ~after_round ?next_busy_round ~graph
                  ~detection ~protocol
                  ~stop:(fun ~round:_ -> false)
                  ~max_rounds (),
                "" ))
        in
        run None = run (Some (fun ~round -> round)));
  ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  (* Two runs: Alcotest sizes its name column to the longest group
     name of a run, and the long "skip contract" label would otherwise
     truncate the property names of the first run. A failing first run
     raises [Alcotest.Test_error], so the executable still exits
     non-zero. *)
  Alcotest.run ~and_exit:false "engine_equiv"
    [
      ( "active-set",
        [
          quick "inactive nodes sleep" test_active_set_sleeps_rest;
          quick "bad id rejected" test_active_set_bad_id;
        ] );
      ("wrappers", wrapper_tests);
      ( "degenerate",
        [
          quick "single node" (test_single_node [ 1; 2; 3; 8 ]);
          quick "n < domains" test_n_less_than_domains;
          quick "empty shards (star)" test_empty_shards_star;
          quick "domains >= 1 enforced" test_domains_must_be_positive;
          quick "bad active id rejected" test_active_set_bad_id;
          quick "bad active count rejected" test_active_set_bad_count;
          quick "lane exception propagates" test_lane_exception_propagates;
        ] );
      ("decay", [ quick "serial ≡ sharded" test_decay_integration ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (qcheck_tests @ [ layered_pipeline_prop ]) );
    ];
  Alcotest.run "engine_equiv_skip"
    [
      ( "skip contract",
        [
          quick "decide elided while skipping" test_skip_elides_decide;
          quick "stop mid-stretch" test_stop_mid_stretch;
          quick "backwards hint raises" test_backwards_hint_raises;
          quick "lying hint obeyed (documented)" test_lying_hint_is_obeyed;
          quick "skipped vs simulated accounting" test_honest_accounting;
          quick "single node" (test_single_node [ 1 ]);
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest skip_qcheck_tests);
    ]
