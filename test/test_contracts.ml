(* Dynamic conformance probes for the protocol contracts of DESIGN.md §12,
   run over the live registry so every pipeline a user can reach from
   rbcast/bench is exercised:

   - R11 silence purity: each registered pipeline runs twice on the same
     (graph, seed), the second time with [Engine.inject_silence] handing
     every listener a spurious [Silence] before its real reception.
     Entries declaring [silence_pure] must produce byte-identical result
     records; entries that opted out with a reasoned [rblint:allow R11]
     (the GST self-test family, where silence means unsafe) must still
     run to completion.
     Decay is also checked at [~domains:2], where the probe reaches the
     parallel deliver phase.
   - transmit-buffer contract: the engine's [?validate] debug flag must
     stay quiet on a well-formed [decide_active] and raise — naming the
     offending round — on one that repeats a node id, on the traced
     every-listener path ("dense"), the default path ("sparse") and at
     [~domains:2] ("sharded"). *)

open Rn_graph
open Rn_radio
open Rn_broadcast

let () = Protocols.ensure_registered ()

let graph =
  Gen.layered_random
    ~rng:(Rn_util.Rng.create ~seed:5)
    ~depth:6 ~width:6 ~p:0.3

let run_entry e = e.Registry.run ~k:3 ~seed:42 ~graph ~source:0 ()

let with_injection f =
  Atomic.set Engine.inject_silence true;
  Fun.protect ~finally:(fun () -> Atomic.set Engine.inject_silence false) f

let injection_case e =
  let name = e.Registry.name in
  Alcotest.test_case name `Quick (fun () ->
      let base = run_entry e in
      let injected = with_injection (fun () -> run_entry e) in
      if e.Registry.silence_pure then begin
        Alcotest.(check int) "rounds" base.Registry.rounds injected.Registry.rounds;
        Alcotest.(check bool) "delivered" base.Registry.delivered
          injected.Registry.delivered;
        Alcotest.(check (list (pair string string)))
          "details" base.Registry.details injected.Registry.details
      end
      else
        (* Silence-as-evidence pipelines legitimately take a different
           trajectory under injection (self-test fallbacks fire); the
           contract is that they remain well-defined, not identical. *)
        Alcotest.(check bool) "completes" true (injected.Registry.rounds > 0))

let decay_domains_case =
  Alcotest.test_case "decay (domains=2)" `Quick (fun () ->
      let run () =
        let r =
          Decay.broadcast ~domains:2 ~rng:(Rn_util.Rng.create ~seed:42) ~graph
            ~source:0 ()
        in
        (r.Decay.outcome, r.Decay.received_round, r.Decay.stats)
      in
      let base = run () in
      Alcotest.(check bool) "identical under injection" true
        (base = with_injection run))

(* --------------------------------------------------------------- *)
(* ?validate: the transmit-buffer distinctness check                 *)

let null_protocol =
  {
    Engine.decide = (fun ~round:_ ~node:_ -> Engine.Listen);
    deliver = (fun ~round:_ ~node:_ _ -> ());
  }

let small = Gen.path 4

let duplicated ~round:_ dst =
  dst.(0) <- 1;
  dst.(1) <- 1;
  2

let distinct ~round:_ dst =
  for v = 0 to Graph.n small - 1 do
    dst.(v) <- v
  done;
  Graph.n small

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let expect_repeat name runner =
  Alcotest.test_case name `Quick (fun () ->
      match runner () with
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            ("names the repeat and the round: " ^ msg)
            true
            (contains msg "repeated node id 1" && contains msg "round 0")
      | _ -> Alcotest.fail "validate:true accepted a duplicated node id")

let expect_clean name runner =
  Alcotest.test_case name `Quick (fun () ->
      ignore (runner () : Engine.outcome))

let validated ?on_round ?domains decide_active () =
  Engine.run ?on_round ?domains ~decide_active ~validate:true ~graph:small
    ~detection:Engine.No_collision_detection ~protocol:null_protocol
    ~stop:(fun ~round:_ -> false)
    ~max_rounds:3 ()

let dense = validated ~on_round:(fun ~round:_ _ -> ())
let sparse = validated ?on_round:None ~domains:1
let sharded = validated ?on_round:None ~domains:2

let registry_tests =
  [
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        match
          Registry.register
            (match Registry.find "decay" with
            | Some e -> e
            | None -> Alcotest.fail "decay not registered")
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "duplicate registration accepted");
    Alcotest.test_case "names cover both arities" `Quick (fun () ->
        let names = Registry.names () in
        List.iter
          (fun n ->
            Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
          [ "decay"; "cr"; "gst"; "thm11"; "known"; "unknown" ]);
  ]

let () =
  Alcotest.run "contracts"
    [
      ("registry", registry_tests);
      ( "silence-injection",
        List.map injection_case (Registry.all ()) @ [ decay_domains_case ] );
      ( "validate",
        [
          expect_clean "dense accepts distinct ids" (dense distinct);
          expect_clean "sparse accepts distinct ids" (sparse distinct);
          expect_clean "sharded accepts distinct ids" (sharded distinct);
          expect_repeat "dense rejects a repeated id" (dense duplicated);
          expect_repeat "sparse rejects a repeated id" (sparse duplicated);
          expect_repeat "sharded rejects a repeated id" (sharded duplicated);
        ] );
    ]
