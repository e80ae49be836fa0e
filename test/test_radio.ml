open Rn_graph
module Topo = Rn_graph.Gen
open Rn_radio

(* These tests pin the §1.1 model, in which every listener observes a
   reception each round, so they run under the reference probe; the default
   path's elision of untouched listeners' [Silence] is pinned against it in
   test_engine_equiv.ml. *)
let () = Atomic.set Engine.reference_mode true

(* Deterministic scripted protocols: [script.(round).(node)] gives the
   action; receptions are recorded for inspection. *)
let scripted script log =
  let decide ~round ~node =
    if round < Array.length script then script.(round).(node) else Engine.Listen
  in
  let deliver ~round ~node reception = log := (round, node, reception) :: !log in
  { Engine.decide; deliver }

let reception_testable =
  let pp fmt = function
    | Engine.Silence -> Format.fprintf fmt "Silence"
    | Engine.Collision -> Format.fprintf fmt "Collision"
    | Engine.Received m -> Format.fprintf fmt "Received %d" m
  in
  Alcotest.testable pp ( = )

let find log round node =
  match
    List.find_opt (fun (r, v, _) -> r = round && v = node) !log
  with
  | Some (_, _, rec_) -> Some rec_
  | None -> None

let run ?stats ?after_round graph detection protocol ~rounds =
  Engine.run ?stats ?after_round ~graph ~detection ~protocol
    ~stop:(fun ~round:_ -> false)
    ~max_rounds:rounds ()

let path3 () = Topo.path 3 (* 0 - 1 - 2 *)
let star () = Topo.star 4 (* center 0; leaves 1,2,3 *)

let test_single_delivery () =
  let log = ref [] in
  let p = scripted [| [| Engine.Transmit 42; Engine.Listen; Engine.Listen |] |] log in
  ignore (run (path3 ()) Engine.Collision_detection p ~rounds:1);
  Alcotest.(check (option reception_testable)) "neighbor receives"
    (Some (Engine.Received 42)) (find log 0 1);
  Alcotest.(check (option reception_testable)) "non-neighbor silent"
    (Some Engine.Silence) (find log 0 2)

let test_transmitter_does_not_receive () =
  let log = ref [] in
  let p =
    scripted [| [| Engine.Transmit 1; Engine.Transmit 2; Engine.Listen |] |] log
  in
  ignore (run (path3 ()) Engine.Collision_detection p ~rounds:1);
  Alcotest.(check (option reception_testable)) "transmitter 0 hears nothing" None
    (find log 0 0);
  Alcotest.(check (option reception_testable)) "transmitter 1 hears nothing" None
    (find log 0 1);
  Alcotest.(check (option reception_testable)) "listener 2 receives from 1"
    (Some (Engine.Received 2)) (find log 0 2)

let test_collision_with_detection () =
  let log = ref [] in
  let p =
    scripted
      [| [| Engine.Listen; Engine.Transmit 1; Engine.Transmit 2; Engine.Transmit 3 |] |]
      log
  in
  ignore (run (star ()) Engine.Collision_detection p ~rounds:1);
  Alcotest.(check (option reception_testable)) "center detects collision"
    (Some Engine.Collision) (find log 0 0)

let test_collision_without_detection () =
  let log = ref [] in
  let p =
    scripted
      [| [| Engine.Listen; Engine.Transmit 1; Engine.Transmit 2; Engine.Transmit 3 |] |]
      log
  in
  ignore (run (star ()) Engine.No_collision_detection p ~rounds:1);
  Alcotest.(check (option reception_testable)) "collision looks like silence"
    (Some Engine.Silence) (find log 0 0)

let test_two_transmitters_distinct_listeners () =
  (* On a path, 0 and 2 both transmit: 1 sees a collision, but in a larger
     path each end-listener would receive cleanly; check both semantics. *)
  let g = Topo.path 5 in
  let log = ref [] in
  let p =
    scripted
      [|
        [|
          Engine.Listen; Engine.Transmit 10; Engine.Listen; Engine.Transmit 30;
          Engine.Listen;
        |];
      |]
      log
  in
  ignore (run g Engine.Collision_detection p ~rounds:1);
  Alcotest.(check (option reception_testable)) "left end clean"
    (Some (Engine.Received 10)) (find log 0 0);
  Alcotest.(check (option reception_testable)) "middle collides"
    (Some Engine.Collision) (find log 0 2);
  Alcotest.(check (option reception_testable)) "right end clean"
    (Some (Engine.Received 30)) (find log 0 4)

let test_sleep_no_delivery () =
  let log = ref [] in
  let p = scripted [| [| Engine.Transmit 5; Engine.Sleep; Engine.Listen |] |] log in
  ignore (run (path3 ()) Engine.Collision_detection p ~rounds:1);
  Alcotest.(check (option reception_testable)) "sleeper hears nothing" None
    (find log 0 1)

let test_stop_predicate () =
  let log = ref [] in
  let p = scripted [||] log in
  let outcome =
    Engine.run
      ~graph:(path3 ())
      ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round -> round >= 3)
      ~max_rounds:100 ()
  in
  Alcotest.(check int) "stops at 3" 3 (Engine.completed_exn outcome)

let test_budget_exhaustion () =
  let log = ref [] in
  let p = scripted [||] log in
  let outcome =
    Engine.run
      ~graph:(path3 ())
      ~detection:Engine.Collision_detection ~protocol:p
      ~stop:(fun ~round:_ -> false)
      ~max_rounds:7 ()
  in
  (match outcome with
  | Engine.Out_of_budget r -> Alcotest.(check int) "budget" 7 r
  | Engine.Completed _ -> Alcotest.fail "expected budget exhaustion");
  Alcotest.(check bool) "completed_exn raises" true
    (try
       ignore (Engine.completed_exn outcome);
       false
     with Failure _ -> true)

let test_stats_counting () =
  let stats = Engine.fresh_stats () in
  let log = ref [] in
  let p =
    scripted
      [|
        (* round 0: two tx colliding at center of star; leaf 3 listens *)
        [| Engine.Listen; Engine.Transmit 1; Engine.Transmit 2; Engine.Listen |];
        (* round 1: single tx from center; all leaves listen *)
        [| Engine.Transmit 9; Engine.Listen; Engine.Listen; Engine.Listen |];
        (* round 2: idle *)
        [| Engine.Listen; Engine.Listen; Engine.Listen; Engine.Listen |];
      |]
      log
  in
  ignore (run ~stats (star ()) Engine.Collision_detection p ~rounds:3);
  Alcotest.(check int) "rounds" 3 stats.Engine.rounds;
  Alcotest.(check int) "transmissions" 3 stats.Engine.transmissions;
  Alcotest.(check int) "collisions (center, round 0)" 1 stats.Engine.collisions;
  Alcotest.(check int) "deliveries (3 leaves, round 1)" 3 stats.Engine.deliveries;
  Alcotest.(check int) "busy rounds" 2 stats.Engine.busy_rounds

let test_after_round_called () =
  let calls = ref [] in
  let log = ref [] in
  let p = scripted [||] log in
  ignore
    (run
       ~after_round:(fun ~round -> calls := round :: !calls)
       (path3 ()) Engine.Collision_detection p ~rounds:4);
  Alcotest.(check (list int)) "after_round per round" [ 3; 2; 1; 0 ] !calls

let test_on_round_events () =
  let seen = ref [] in
  let log = ref [] in
  let p = scripted [| [| Engine.Transmit 42; Engine.Listen; Engine.Listen |] |] log in
  ignore
    (Engine.run
       ~on_round:(fun ~round events -> seen := (round, events) :: !seen)
       ~graph:(path3 ())
       ~detection:Engine.Collision_detection ~protocol:p
       ~stop:(fun ~round:_ -> false)
       ~max_rounds:1 ());
  match !seen with
  | [ (0, events) ] ->
      let txs =
        List.filter (function Engine.Ev_transmit _ -> true | _ -> false) events
      in
      let rxs =
        List.filter (function Engine.Ev_receive _ -> true | _ -> false) events
      in
      Alcotest.(check int) "one tx event" 1 (List.length txs);
      Alcotest.(check int) "two rx events" 2 (List.length rxs)
  | _ -> Alcotest.fail "expected exactly one traced round"

let test_message_content_preserved () =
  (* Non-int messages flow through the polymorphic engine unchanged. *)
  let log = ref [] in
  let decide ~round ~node =
    if round = 0 && node = 0 then Engine.Transmit "hello" else Engine.Listen
  in
  let deliver ~round:_ ~node reception = log := (node, reception) :: !log in
  ignore
    (Engine.run
       ~graph:(path3 ())
       ~detection:Engine.Collision_detection
       ~protocol:{ Engine.decide; deliver }
       ~stop:(fun ~round:_ -> false)
       ~max_rounds:1 ());
  let got =
    List.exists (fun (v, r) -> v = 1 && r = Engine.Received "hello") !log
  in
  Alcotest.(check bool) "string payload intact" true got

let qcheck_tests =
  let open QCheck in
  [
    (* Reception semantics invariant: a listener's reception is exactly
       determined by the number of transmitting neighbors. *)
    Test.make ~name:"reception matches transmitter count" ~count:200
      (pair (int_range 2 30) (int_range 0 10_000))
      (fun (n, seed) ->
        let rng = Rn_util.Rng.create ~seed in
        let g = Topo.random_connected ~rng ~n ~extra:n in
        let tx = Array.init n (fun _ -> Rn_util.Rng.bool rng) in
        let observed = Array.make n None in
        let decide ~round:_ ~node =
          if tx.(node) then Engine.Transmit node else Engine.Listen
        in
        let deliver ~round:_ ~node reception = observed.(node) <- Some reception in
        ignore
          (Engine.run ~graph:g ~detection:Engine.Collision_detection
             ~protocol:{ Engine.decide; deliver }
             ~stop:(fun ~round:_ -> false)
             ~max_rounds:1 ());
        let ok = ref true in
        for v = 0 to n - 1 do
          let txn =
            Graph.fold_neighbors g v
              (fun acc u -> if tx.(u) then acc + 1 else acc)
              0
          in
          (match (tx.(v), observed.(v)) with
          | true, None -> ()
          | true, Some _ -> ok := false
          | false, Some Engine.Silence -> if txn <> 0 then ok := false
          | false, Some (Engine.Received u) ->
              if txn <> 1 then ok := false
              else if not (Graph.mem_edge g v u) then ok := false
          | false, Some Engine.Collision -> if txn < 2 then ok := false
          | false, None -> ok := false);
          ()
        done;
        !ok);
  ]

let () =
  Alcotest.run "rn_radio"
    [
      ( "engine",
        [
          Alcotest.test_case "single delivery" `Quick test_single_delivery;
          Alcotest.test_case "half-duplex" `Quick test_transmitter_does_not_receive;
          Alcotest.test_case "collision with CD" `Quick test_collision_with_detection;
          Alcotest.test_case "collision without CD" `Quick
            test_collision_without_detection;
          Alcotest.test_case "spatial reuse" `Quick
            test_two_transmitters_distinct_listeners;
          Alcotest.test_case "sleep" `Quick test_sleep_no_delivery;
          Alcotest.test_case "stop predicate" `Quick test_stop_predicate;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "after_round" `Quick test_after_round_called;
          Alcotest.test_case "on_round events" `Quick test_on_round_events;
          Alcotest.test_case "polymorphic payloads" `Quick
            test_message_content_preserved;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
