(* perfbench: the repository's end-to-end and per-layer benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size small]

   A workload is a batch of instances drawn from the seed.  Untraced
   ([--trace 0]) the batch is run pass after pass for about [S] seconds
   of measured time, every output is checked, and the end-to-end metrics
   are printed.  Traced ([--trace 1]) one untraced pass is followed by
   one instrumented pass that times the calls into each library layer
   from here, and the per-layer metrics are printed.  The last stdout
   line is the JSON result; README.md documents every metric. *)

open Rn_util
open Rn_graph
open Rn_broadcast
module Engine = Rn_radio.Engine
module Metrics = Rn_obs.Metrics
module Spec = Rn_campaign.Spec
module Campaign = Rn_campaign.Campaign
module Dist = Rn_campaign.Dist
module Rlnc = Rn_coding.Rlnc

(* ------------------------------------------------------------------ *)
(* Metric tables — must match BENCHMARK.json (run.py checks).          *)

let end_to_end =
  [
    ("wall_s", "s"); ("cpu_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("protocol_rounds", "rounds"); ("cells_per_sec", "cells/s");
  ]

let per_layer =
  [
    ("graph.gen_s", "s"); ("graph.nodes", "count"); ("graph.edges", "count");
    ("graph.csr_mb", "MB");
    ("radio.sim_rounds", "rounds"); ("radio.skipped_rounds", "rounds");
    ("radio.skip_ratio", "ratio"); ("radio.ns_per_sim_round", "ns");
    ("radio.parallel_eff", "ratio");
    ("core.layering_s", "s"); ("core.layering_rounds", "rounds");
    ("core.construction_s", "s"); ("core.construction_rounds", "rounds");
    ("core.assignment_rounds", "rounds");
    ("core.construction_sim_rounds", "rounds");
    ("core.construction_skipped_rounds", "rounds");
    ("core.fallback_reactivations", "count"); ("core.class_fixups", "count");
    ("core.broadcast_s", "s"); ("core.handoff_s", "s");
    ("core.broadcast_rounds", "rounds"); ("core.gst_build_s", "s");
    ("coding.ns_per_encode", "ns"); ("coding.ns_per_receive", "ns");
    ("coding.decode_s", "s"); ("coding.useful_ratio", "ratio");
    ("obs.tx", "count"); ("obs.deliveries", "count");
    ("obs.collisions", "count"); ("obs.deliveries_per_tx", "ratio");
    ("trace.overhead_s", "s");
    ("campaign.spec_s", "s"); ("campaign.gen_s", "s"); ("campaign.run_s", "s");
    ("campaign.drain_s", "s"); ("campaign.journal_s", "s");
    ("campaign.journal_bytes", "bytes"); ("campaign.steals", "count");
    ("campaign.lane_busy_ratio", "ratio"); ("campaign.cell_p50_ms", "ms");
    ("campaign.cell_p90_ms", "ms"); ("campaign.resume_s", "s");
    ("campaign.merge_s", "s");
  ]

(* ------------------------------------------------------------------ *)
(* Clocks and small helpers                                            *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a non-empty array. *)
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Peak resident set of this process (Linux [VmHWM]), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let completed = function Engine.Completed _ -> true | Engine.Out_of_budget _ -> false

(* ------------------------------------------------------------------ *)
(* Workload plumbing                                                   *)

type size = Full | Small

(* What running (part of) a workload produced.  [checks] counts the
   correctness checks made and [failures] names the ones that failed. *)
type outcome = { rounds : int; cells : int; checks : int; failures : string list }

let check name ok = if ok then [] else [ name ]
let checked ?(rounds = 0) ?(cells = 0) failures = { rounds; cells; checks = 1; failures }

let sum_outcomes parts =
  {
    rounds = List.fold_left (fun a o -> a + o.rounds) 0 parts;
    cells = List.fold_left (fun a o -> a + o.cells) 0 parts;
    checks = List.fold_left (fun a o -> a + o.checks) 0 parts;
    failures = List.concat_map (fun o -> o.failures) parts;
  }

type prepared = {
  count : int;  (** instances in the batch *)
  run : int -> unit -> outcome;
      (** [run i] runs instance [i] — the timed part — and returns the
          check of its outputs, which is not timed *)
  traced : reference:outcome -> outcome * (string * float) list;
      (** one instrumented pass; [reference] is an untraced pass *)
}

type workload = {
  name : string;
  domains : int;
  setup_reps : int;
  setup : size -> int -> prepared;  (** [setup size seed]; timed as setup_s *)
}

let run_all p = sum_outcomes (List.init p.count (fun i -> p.run i ()))

let graph_facts graphs gen_s =
  let sum f = Array.fold_left (fun a g -> a + f g) 0 graphs in
  [
    ("graph.gen_s", gen_s);
    ("graph.nodes", float_of_int (sum Graph.n));
    ("graph.edges", float_of_int (sum Graph.m));
    (* computed from the CSR array lengths, one word per entry *)
    ( "graph.csr_mb",
      float_of_int
        (sum (fun g -> Array.length (Graph.offsets g) + Array.length (Graph.targets g))
        * (Sys.word_size / 8))
      /. 1e6 );
  ]

(* Engine counters, wall and CPU time around [f]. *)
let with_engine_counters f =
  let s0 = Engine.total_simulated_rounds ()
  and k0 = Engine.total_skipped_rounds ()
  and c0 = cpu_now () in
  let r, wall = timed f in
  let cpu = cpu_now () -. c0 in
  (r, Engine.total_simulated_rounds () - s0, Engine.total_skipped_rounds () - k0, wall, cpu)

let radio_facts ~domains ~sim ~skipped ~wall ~cpu =
  [
    ("radio.sim_rounds", float_of_int sim);
    ("radio.skipped_rounds", float_of_int skipped);
    ("radio.skip_ratio", ratio (float_of_int skipped) (float_of_int (sim + skipped)));
    ("radio.ns_per_sim_round", ratio (wall *. 1e9) (float_of_int sim));
    ("radio.parallel_eff", ratio cpu (wall *. float_of_int domains));
  ]

let obs_facts reg =
  let tx = Metrics.transmissions reg and dl = Metrics.deliveries reg in
  [
    ("obs.tx", float_of_int tx);
    ("obs.deliveries", float_of_int dl);
    ("obs.collisions", float_of_int (Metrics.collisions reg));
    ("obs.deliveries_per_tx", ratio (float_of_int dl) (float_of_int tx));
  ]

(* Named sums collected while tracing: stage times and counts. *)
type sums = (string, float) Hashtbl.t

let add (sums : sums) key v =
  Hashtbl.replace sums key (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums key))

let get (sums : sums) key = Option.value ~default:0.0 (Hashtbl.find_opt sums key)

let timed_add sums key f =
  let r, t = timed f in
  add sums key t;
  r

let useful_ratio sums = ("coding.useful_ratio", ratio (get sums "useful") (get sums "deliveries"))

(* Relay-chain replay of the coding layer: node [i] receives random
   combinations encoded by node [i-1] until it can decode, for [n] nodes
   at [k] messages of [msg_len] bits.  Encodes and receives are timed in
   batches; every node must decode exactly the source messages. *)
let rlnc_replay ~seed ~k ~msg_len ~n =
  let rng = Rng.create ~seed in
  let msgs = Multi_broadcast.random_messages rng ~k ~msg_len in
  let prev = ref (Rlnc.create ~k ~msg_len) in
  Rlnc.seed_with_sources !prev ~msgs;
  let enc_s = ref 0.0 and rcv_s = ref 0.0 and dec_s = ref 0.0 in
  let encodes = ref 0 and receives = ref 0 and ok = ref true in
  for _ = 1 to n - 1 do
    let cur = Rlnc.create ~k ~msg_len in
    while not (Rlnc.can_decode cur) do
      let pkts, t =
        timed (fun () -> Array.init (k + 2) (fun _ -> Option.get (Rlnc.encode rng !prev)))
      in
      enc_s := !enc_s +. t;
      encodes := !encodes + Array.length pkts;
      let (), t =
        timed (fun () ->
            Array.iter
              (fun p ->
                if not (Rlnc.can_decode cur) then begin
                  incr receives;
                  ignore (Rlnc.receive cur p : bool)
                end)
              pkts)
      in
      rcv_s := !rcv_s +. t
    done;
    let d, t = timed (fun () -> Rlnc.decode cur) in
    dec_s := !dec_s +. t;
    (match d with
    | Some got -> if not (Array.for_all2 Rn_coding.Bitvec.equal got msgs) then ok := false
    | None -> ok := false);
    prev := cur
  done;
  ( checked (check "rlnc replay: a node mis-decoded" !ok),
    [
      ("coding.ns_per_encode", ratio (!enc_s *. 1e9) (float_of_int !encodes));
      ("coding.ns_per_receive", ratio (!rcv_s *. 1e9) (float_of_int !receives));
      ("coding.decode_s", !dec_s);
    ] )

(* A batch of [count] layered graphs, each with its own graph seed and
   run seed drawn from the workload seed.  One instance's cost varies a
   lot with its graph; a batch averages that out, so a run's figures do
   not hinge on which seed it was given. *)
type instance = { g : Graph.t; rseed : int }

let layered_batch ~seed ~count ~depth ~width =
  let rng = Rng.create ~seed in
  Array.init count (fun _ ->
      let gseed = Rng.int rng 0x3fffffff in
      let rseed = Rng.int rng 0x3fffffff in
      { g = Gen.layered_random ~rng:(Rng.create ~seed:gseed) ~depth ~width ~p:0.3; rseed })

let batch_graph_facts batch gen_s = graph_facts (Array.map (fun i -> i.g) batch) gen_s

(* ------------------------------------------------------------------ *)
(* thm11-layered: Theorem 1.1 on the paper's headline workload         *)

let thm11 size seed =
  let depth, width, count = match size with Full -> (60, 20, 24) | Small -> (8, 8, 2) in
  let batch, gen_s = timed (fun () -> layered_batch ~seed ~count ~depth ~width) in
  let delivered_all (r : Single_broadcast.result) =
    r.Single_broadcast.delivered && Array.for_all Fun.id r.Single_broadcast.received
  in
  let results = Array.make count None in
  let run i =
    let { g; rseed } = batch.(i) in
    let r = Single_broadcast.run ~rng:(Rng.create ~seed:rseed) ~graph:g ~source:0 () in
    results.(i) <- Some r;
    fun () ->
      checked ~rounds:r.Single_broadcast.rounds_total ~cells:1
        (check "thm11: not delivered to all nodes" (delivered_all r))
  in
  (* Single_broadcast.run replayed stage by stage from outside, with the
     same Rng split order, so each stage can be timed and counted.  The
     replay must reproduce the library run's delivery and round split
     exactly, or the per-stage figures would describe another program. *)
  let reg = Metrics.create () in
  let sums = Hashtbl.create 16 in
  let add key v = add sums key v and addi key v = add sums key (float_of_int v) in
  let timed_add key f = timed_add sums key f in
  let replay { g; rseed } (lib : Single_broadcast.result) =
    let params = Params.default in
    let rng = Rng.create ~seed:rseed in
    let wave =
      timed_add "core.layering_s" (fun () -> Layering.collision_wave ~graph:g ~sources:[| 0 |] ())
    in
    let rings = Rings.decompose ~levels:wave.Layering.levels ~width:lib.Single_broadcast.ring_width in
    let nrings = rings.Rings.count in
    let ring_results, csim, cskip, construction_s, _ =
      with_engine_counters (fun () ->
          List.init nrings (fun j ->
              Gst_distributed.construct
                ~layering:(Gst_distributed.Given_layering (Rings.ring_levels rings j))
                ~learn_vd:true ~params ~rng:(Rng.split rng) ~graph:g ~roots:(Rings.roots rings j)
                ()))
    in
    let construction_rounds =
      Rings.charged_parallel_rounds (List.map (fun r -> r.Gst_distributed.total_rounds) ring_results)
    in
    add "core.construction_s" construction_s;
    addi "core.construction_sim_rounds" csim;
    addi "core.construction_skipped_rounds" cskip;
    List.iter
      (fun r ->
        addi "core.assignment_rounds" r.Gst_distributed.assignment_rounds;
        addi "core.fallback_reactivations" r.Gst_distributed.fallback_reactivations;
        addi "core.class_fixups" r.Gst_distributed.class_fixups)
      ring_results;
    let msg = [| Rn_coding.Bitvec.random rng 32 |] in
    let received = Array.make (Graph.n g) false in
    received.(0) <- true;
    let bcast_rounds = ref 0 and ok = ref true in
    List.iteri
      (fun j r ->
        let roots = Rings.roots rings j in
        if !ok && Array.for_all (fun v -> received.(v)) roots then begin
          let gst = r.Gst_distributed.gst in
          let b =
            timed_add "core.broadcast_s" (fun () ->
                Gst_broadcast.run ~params ~metrics:reg ~rng:(Rng.split rng) ~gst
                  ~vd:r.Gst_distributed.vd ~msgs:msg ~sources:roots ())
          in
          bcast_rounds := !bcast_rounds + b.Gst_broadcast.rounds;
          addi "useful" (Gst.size gst - Array.length roots);
          addi "deliveries" b.Gst_broadcast.stats.Engine.deliveries;
          if completed b.Gst_broadcast.outcome then
            Array.iteri (fun v dr -> if dr >= 0 then received.(v) <- true) b.Gst_broadcast.decode_round
          else ok := false;
          if !ok && j + 1 < nrings then begin
            let receivers = Rings.roots rings (j + 1) in
            let h =
              timed_add "core.handoff_s" (fun () ->
                  Rings.handoff_single ~params ~rng:(Rng.split rng) ~graph:g
                    ~holders:(Rings.outer_boundary rings j) ~receivers ())
            in
            bcast_rounds := !bcast_rounds + h.Rings.rounds;
            if h.Rings.delivered then Array.iter (fun v -> received.(v) <- true) receivers
            else ok := false
          end
        end
        else ok := false)
      ring_results;
    addi "core.layering_rounds" wave.Layering.rounds;
    addi "core.construction_rounds" construction_rounds;
    addi "core.broadcast_rounds" !bcast_rounds;
    let delivered = !ok && Array.for_all Fun.id received in
    sum_outcomes
      [
        checked ~rounds:lib.Single_broadcast.rounds_total ~cells:1
          (check "thm11: not delivered to all nodes" (delivered_all lib));
        checked
          (check "thm11: stage replay diverges from Single_broadcast.run"
             (delivered = lib.Single_broadcast.delivered
             && wave.Layering.rounds = lib.Single_broadcast.rounds_layering
             && construction_rounds = lib.Single_broadcast.rounds_construction
             && !bcast_rounds = lib.Single_broadcast.rounds_broadcast));
      ]
  in
  let traced ~reference:(_ : outcome) =
    let replays, wall =
      timed (fun () -> List.init count (fun i -> replay batch.(i) (Option.get results.(i))))
    in
    Array.iter
      (fun { g; _ } ->
        ignore (timed_add "core.gst_build_s" (fun () -> Gst.build_centralized ~graph:g ~roots:[| 0 |] ())))
      batch;
    let coding_check, coding = rlnc_replay ~seed ~k:1 ~msg_len:32 ~n:(Graph.n batch.(0).g) in
    ( sum_outcomes (coding_check :: replays),
      (("trace.wall", wall) :: useful_ratio sums :: List.of_seq (Hashtbl.to_seq sums))
      @ coding @ obs_facts reg @ batch_graph_facts batch gen_s )
  in
  { count; run; traced }

(* ------------------------------------------------------------------ *)
(* decay-dense: Decay on the sharded engine, no round ever skipped     *)

let decay_domains = 2

let decay size seed =
  let depth, width, count = match size with Full -> (100, 250, 3) | Small -> (10, 30, 2) in
  let batch, gen_s = timed (fun () -> layered_batch ~seed ~count ~depth ~width) in
  let run_with ?metrics i =
    let { g; rseed } = batch.(i) in
    let r =
      Decay.broadcast ~domains:decay_domains ?metrics ~rng:(Rng.create ~seed:rseed) ~graph:g
        ~source:0 ()
    in
    fun () ->
      checked ~rounds:(Engine.rounds_of_outcome r.Decay.outcome) ~cells:1
        (check "decay: not delivered to all nodes"
           (completed r.Decay.outcome && Array.for_all (fun x -> x >= 0) r.Decay.received_round))
  in
  let traced ~reference =
    let reg = Metrics.create () in
    let o, wall =
      timed (fun () -> sum_outcomes (List.init count (fun i -> run_with ~metrics:reg i ())))
    in
    ( sum_outcomes
        [ o; checked (check "decay: traced run diverges from untraced" (o.rounds = reference.rounds)) ],
      (("trace.wall", wall) :: obs_facts reg) @ batch_graph_facts batch gen_s )
  in
  { count; run = (fun i -> run_with i); traced }

(* ------------------------------------------------------------------ *)
(* kmsg-rlnc: Theorem 1.2, RLNC over a centralized GST                 *)

let kmsg size seed =
  let depth, width, k, count = match size with Full -> (8, 20, 64, 40) | Small -> (5, 8, 8, 2) in
  let msg_len = 32 in
  let batch, gen_s = timed (fun () -> layered_batch ~seed ~count ~depth ~width) in
  let check_run rounds ok =
    checked ~rounds ~cells:1 (check "kmsg: not decoded everywhere with the right payloads" ok)
  in
  let run i =
    let { g; rseed } = batch.(i) in
    let r = Multi_broadcast.known ~msg_len ~rng:(Rng.create ~seed:rseed) ~graph:g ~source:0 ~k () in
    fun () ->
      check_run r.Multi_broadcast.rounds
        (r.Multi_broadcast.delivered && r.Multi_broadcast.payloads_ok
        && Array.for_all (fun x -> x >= 0) r.Multi_broadcast.decode_round)
  in
  (* Multi_broadcast.known replayed from outside, with a registry on the
     GST broadcast; it must reproduce the library's round count. *)
  let traced ~reference =
    let reg = Metrics.create () in
    let sums = Hashtbl.create 8 in
    let replay { g; rseed } =
      let rng = Rng.create ~seed:rseed in
      let gst =
        timed_add sums "core.gst_build_s" (fun () -> Gst.build_centralized ~graph:g ~roots:[| 0 |] ())
      in
      let vd = Gst.virtual_distances gst in
      let msgs = Multi_broadcast.random_messages rng ~k ~msg_len in
      let b =
        timed_add sums "core.broadcast_s" (fun () ->
            Gst_broadcast.run ~metrics:reg ~rng:(Rng.split rng) ~gst ~vd ~msgs ~sources:[| 0 |] ())
      in
      add sums "useful" (float_of_int ((Gst.size gst - 1) * k));
      add sums "deliveries" (float_of_int b.Gst_broadcast.stats.Engine.deliveries);
      check_run b.Gst_broadcast.rounds
        (completed b.Gst_broadcast.outcome && b.Gst_broadcast.payloads_ok
        && Array.for_all (fun x -> x >= 0) b.Gst_broadcast.decode_round)
    in
    let o, wall = timed (fun () -> sum_outcomes (List.map replay (Array.to_list batch))) in
    let coding_check, coding = rlnc_replay ~seed ~k ~msg_len ~n:(Graph.n batch.(0).g) in
    ( sum_outcomes
        [
          o;
          coding_check;
          checked
            (check "kmsg: replay diverges from Multi_broadcast.known" (o.rounds = reference.rounds));
        ],
      [
        ("trace.wall", wall);
        ("core.broadcast_rounds", float_of_int o.rounds);
        useful_ratio sums;
      ]
      @ List.of_seq (Hashtbl.to_seq sums)
      @ coding @ obs_facts reg @ batch_graph_facts batch gen_s )
  in
  { count; run; traced }

(* ------------------------------------------------------------------ *)
(* campaign-mix: a sweep of many short runs through rn_campaign         *)

let campaign_domains = 2

(* The sweep as [parts] campaign specs run back to back, each over the
   same six topologies and four protocols with its own run seeds.  Parts
   of under a second keep each timed sample close to its reference
   sample, as the other workloads' instances are (see [measure]). *)
let campaign_specs size seed =
  let rng = Rng.create ~seed in
  let drawn = ref [] in
  let rec draw count acc =
    if count = 0 then acc
    else
      let x = 1 + Rng.int rng 999_999 in
      if List.mem x !drawn then draw count acc
      else begin
        drawn := x :: !drawn;
        draw (count - 1) (x :: acc)
      end
  in
  let seeds count = String.concat "," (List.map string_of_int (draw count [])) in
  let disk_n, disk_r, side, tseeds, parts, rseeds =
    match size with Full -> (600, 0.12, 16, 3, 4, 3) | Small -> (60, 0.3, 4, 2, 2, 1)
  in
  let topologies =
    [
      Printf.sprintf {|{"topo":"disk","n":%d,"radius":%g,"seeds":[%s]}|} disk_n disk_r (seeds tseeds);
      Printf.sprintf {|{"topo":"layered","depth":%d,"width":%d,"p":0.3,"seeds":[%s]}|} side side
        (seeds tseeds);
      {|{"proto":"decay"}|}; {|{"proto":"cr"}|}; {|{"proto":"thm11"}|};
      {|{"proto":"unknown","k":4}|};
    ]
  in
  List.init parts (fun _ ->
      String.concat "\n" (topologies @ [ Printf.sprintf {|{"seeds":[%s]}|} (seeds rseeds) ]))

(* The journal file, inside the checkout's build directory; removed at
   exit. *)
let journal_path =
  lazy
    (let dir = Filename.concat ".bench_build" "perfbench" in
     List.iter
       (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755)
       [ Filename.dirname dir; dir ];
     let path = Filename.concat dir (Printf.sprintf "campaign-%d.jsonl" (Unix.getpid ())) in
     at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
     path)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let delivered_line line =
  match Jsons.parse_obj line with
  | Ok fields -> Jsons.bool_mem "delivered" fields = Some true
  | Error _ -> false

let parse_spec text =
  match Spec.parse text with
  | Ok s -> (s, Spec.cells s)
  | Error e -> failwith ("campaign-mix: bad spec: " ^ e)

type campaign_run = {
  emitted : string list;
  st : Campaign.stats;
  wall : float;
  journal_s : float;
  bytes : int;
}

let campaign size seed =
  let texts = campaign_specs size seed in
  let specs = Array.of_list (List.map parse_spec texts) in
  (* One campaign over a spec with the journal appended (and flushed per
     line) to a file, as the CLI does. *)
  let run_once spec =
    let oc = open_out_bin (Lazy.force journal_path) in
    let emitted = ref [] and journal_s = ref 0.0 and bytes = ref 0 in
    let st, wall =
      timed (fun () ->
          Campaign.run ~domains:campaign_domains ~clock:now
            ~journal:(fun line ->
              let t0 = now () in
              output_string oc line;
              output_char oc '\n';
              flush oc;
              bytes := !bytes + String.length line + 1;
              journal_s := !journal_s +. (now () -. t0))
            ~emit:(fun line -> emitted := line :: !emitted)
            spec)
    in
    close_out oc;
    { emitted = List.rev !emitted; st; wall; journal_s = !journal_s; bytes = !bytes }
  in
  let rounds (st : Campaign.stats) = Array.fold_left ( + ) 0 st.Campaign.cell_rounds in
  (* Every cell must deliver, and the journal must round-trip two ways:
     merged back into the emitted lines, and resumed into the same output
     with nothing re-executed. *)
  let verify spec r =
    let ncells = Array.length (Spec.cells spec) in
    let lines = read_lines (Lazy.force journal_path) in
    let (merged, m), merge_s = timed (fun () -> Dist.merge spec [ lines ]) in
    let (resumed, rstats), resume_s =
      timed (fun () ->
          let out = ref [] in
          let st =
            Campaign.run ~domains:campaign_domains ~resume_lines:lines
              ~emit:(fun l -> out := l :: !out)
              spec
          in
          (List.rev !out, st))
    in
    let o =
      {
        rounds = rounds r.st;
        cells = ncells;
        checks = ncells + 3;
        failures =
          List.filter_map
            (fun l -> if delivered_line l then None else Some "campaign: a cell did not deliver")
            r.emitted
          @ check "campaign: wrong number of emitted lines" (List.length r.emitted = ncells)
          @ check "campaign: Dist.merge does not reproduce the emitted lines"
              (merged = r.emitted && m.Dist.torn = 0 && m.Dist.stale = 0 && m.Dist.missing = [])
          @ check "campaign: resume re-executed cells or changed the output"
              (rstats.Campaign.executed = 0 && resumed = r.emitted);
      }
    in
    (o, merge_s, resume_s)
  in
  let run i =
    let spec, _ = specs.(i) in
    let r = run_once spec in
    fun () ->
      let o, _, _ = verify spec r in
      o
  in
  let traced ~reference =
    let spec_s = snd (timed (fun () -> List.iter (fun t -> ignore (parse_spec t)) texts)) in
    let reg = Metrics.create () in
    let sums = Hashtbl.create 16 in
    let walls = ref [] in
    (* every part sweeps the same topologies *)
    let graphs, gen_s = timed (fun () -> Array.map Spec.build (Spec.instances (fst specs.(0)))) in
    let part (spec, cells) =
      let r = run_once spec in
      let o, merge_s, resume_s = verify spec r in
      let st = r.st in
      List.iter
        (fun (key, v) -> add sums key v)
        [
          ("trace.wall", r.wall); ("campaign.gen_s", st.Campaign.gen_s);
          ("campaign.run_s", st.Campaign.run_s); ("campaign.drain_s", st.Campaign.drain_s);
          ("campaign.journal_s", r.journal_s); ("campaign.journal_bytes", float_of_int r.bytes);
          ("campaign.steals", float_of_int st.Campaign.steals); ("campaign.resume_s", resume_s);
          ("campaign.merge_s", merge_s);
        ];
      walls := Array.to_list st.Campaign.cell_wall @ !walls;
      (* The traceable protocols' cells replayed serially through the
         protocol registry with one metrics registry attached; each must
         reproduce the campaign's round count for that cell. *)
      let replays =
        Array.to_list cells
        |> List.filter_map (fun (c : Spec.cell) ->
               match Rn_radio.Registry.find c.Spec.proto with
               | Some e when e.Rn_radio.Registry.traceable ->
                   let rr =
                     e.Rn_radio.Registry.run ?k:c.Spec.k ~metrics:reg ~seed:c.Spec.run_seed
                       ~graph:graphs.(c.Spec.topo) ~source:0 ()
                   in
                   Some
                     (checked
                        (check "campaign: registry replay diverges from the campaign cell"
                           (rr.Rn_radio.Registry.rounds = st.Campaign.cell_rounds.(c.Spec.idx))))
               | _ -> None)
      in
      sum_outcomes (o :: replays)
    in
    let parts = List.map part (Array.to_list specs) in
    let o = sum_outcomes parts in
    let coding_check, coding =
      rlnc_replay ~seed ~k:4 ~msg_len:32 ~n:(Array.fold_left (fun a g -> max a (Graph.n g)) 0 graphs)
    in
    let cell_ms = Array.of_list (List.map (fun w -> w *. 1e3) !walls) in
    ( sum_outcomes
        [
          o; coding_check;
          checked (check "campaign: traced run diverges from untraced" (o.rounds = reference.rounds));
        ],
      [
        ("campaign.spec_s", spec_s);
        ("campaign.lane_busy_ratio",
          ratio (get sums "campaign.run_s") (get sums "trace.wall" *. float_of_int campaign_domains));
        ("campaign.cell_p50_ms", percentile cell_ms 0.5);
        ("campaign.cell_p90_ms", percentile cell_ms 0.9);
      ]
      @ List.of_seq (Hashtbl.to_seq sums)
      @ coding @ obs_facts reg @ graph_facts graphs gen_s )
  in
  { count = Array.length specs; run; traced }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let workloads =
  [
    { name = "thm11-layered"; domains = 1; setup_reps = 15; setup = thm11 };
    { name = "decay-dense"; domains = decay_domains; setup_reps = 3; setup = decay };
    { name = "kmsg-rlnc"; domains = 1; setup_reps = 15; setup = kmsg };
    { name = "campaign-mix"; domains = campaign_domains; setup_reps = 51; setup = campaign };
  ]

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* Print the human-readable summary, then the JSON result line; exit 1
   if any check failed. *)
let report ~attempted ~failures table metrics =
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  let failed = List.length failures in
  Printf.printf "failed_frac %.6f (%d of %d checks failed)\n"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  let rows =
    List.map
      (fun (name, unit) -> (name, unit, Option.value ~default:0.0 (List.assoc_opt name metrics)))
      table
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %16.6g %s\n" n v u) rows;
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} (failed = 0) attempted
    failed
    (String.concat ","
       (List.map
          (fun (n, u, v) -> Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} n (json_num v) u)
          rows));
  print_newline ();
  exit (if failed = 0 then 0 else 1)

(* Host-speed reference.  On a host whose cores are shared with other
   tenants, contended phases of seconds to minutes slow this simulator
   1.5-1.9x.  A fixed mix of OCaml standard-library work (hashing, maps,
   sorting, formatting; no code of this repository) slows by nearly the
   same factor at the same moments, while a tight arithmetic loop or a
   pointer chase does not (README.md).  Every timed sample is divided by
   a reference time taken at most a quarter second before it and scaled
   back by [reference_s], the reference's time on an uncontended 2-vCPU
   Xeon VM, so timings read as seconds on that host whatever the
   contention.  The reference runs on one core, so it follows the
   workloads on two domains less closely.  It must never change: it is
   the unit of every time metric. *)
module Smap = Map.Make (String)

let reference_kernel () =
  let h = Hashtbl.create 64 and m = ref Smap.empty and b = Buffer.create 256 in
  for i = 1 to 6000 do
    let k = Printf.sprintf "k%d-%d" (i * 7919 mod 5003) (i land 31) in
    Hashtbl.replace h (i * 31, k) i;
    m := Smap.add k i !m;
    Buffer.add_string b k;
    if Buffer.length b > 4096 then Buffer.clear b
  done;
  let l = List.sort compare (List.init 4000 (fun i -> ((i * 104729) mod 7919, string_of_int i))) in
  let a = Array.map (fun (x, s) -> x + String.length s) (Array.of_list l) in
  Hashtbl.length h + Smap.cardinal !m + Array.fold_left ( + ) 0 a

let reference_s = 0.007

(* The reference time now: re-measured when the last sample is more
   than a quarter second old (contended phases last seconds), which
   keeps the reference to a few percent of a run. *)
let reference_time =
  let last = ref (neg_infinity, 0.0) in
  fun () ->
    let at, r = !last in
    if now () -. at < 0.25 then r
    else begin
      let r = snd (timed reference_kernel) in
      last := (now (), r);
      r
    end

(* Untraced: run the batch pass after pass until [seconds] of measured
   time are used.  Each instance's wall and CPU time per pass is taken in
   reference units (see above); wall_s and cpu_s sum each instance's
   median over the passes.  Set-up is redone between passes (on
   identical inputs), [setup_reps] times in all and evenly over the run,
   and setup_s is the median of those samples in the same units. *)
let measure w size seed seconds =
  let unit = reference_time in
  ignore (unit ());
  let setup_times = ref [] in
  let setup () =
    Gc.compact ();
    let r = unit () in
    let p, t = timed (fun () -> w.setup size seed) in
    setup_times := (t /. r) :: !setup_times;
    p
  in
  let cur = ref (Some (setup ())) in
  let count = (Option.get !cur).count in
  let walls = Array.make count [] and cpus = Array.make count [] and raw = Array.make count [] in
  let units = ref [] and rounds = Array.make count 0 and cells = Array.make count 0 in
  let checks = ref 1 and failures = ref [] and passes = ref 0 and measured = ref 0.0 in
  let pass p =
    for i = 0 to count - 1 do
      let r = unit () in
      let c0 = cpu_now () in
      let verify, wall = timed (fun () -> p.run i) in
      let cpu = cpu_now () -. c0 in
      let o = verify () in
      measured := !measured +. wall;
      units := r :: !units;
      raw.(i) <- wall :: raw.(i);
      walls.(i) <- (wall /. r) :: walls.(i);
      cpus.(i) <- (cpu /. r) :: cpus.(i);
      if !passes > 0 && o.rounds <> rounds.(i) then
        failures := "rounds differ between passes on the same inputs" :: !failures;
      rounds.(i) <- o.rounds;
      cells.(i) <- o.cells;
      checks := !checks + o.checks;
      failures := !failures @ o.failures
    done;
    incr passes
  in
  let rec loop () =
    let before = !measured in
    pass (Option.get !cur);
    let due = float_of_int w.setup_reps *. Float.min 1.0 (!measured /. seconds) in
    while float_of_int (List.length !setup_times) < due do
      cur := None;
      cur := Some (setup ())
    done;
    if !measured +. (!measured -. before) <= seconds then loop ()
  in
  loop ();
  cur := None;
  while List.length !setup_times < w.setup_reps do
    ignore (setup () : prepared)
  done;
  let sum_medians samples = Array.fold_left (fun a xs -> a +. median xs) 0.0 samples in
  let wall = reference_s *. sum_medians walls in
  Printf.printf "passes %d; unnormalized wall of a pass %.4f s; reference %.2f ms (median), %.2f ms nominal\n"
    !passes (sum_medians raw) (median !units *. 1e3) (reference_s *. 1e3);
  report ~attempted:!checks ~failures:!failures end_to_end
    [
      ("wall_s", wall);
      ("cpu_s", reference_s *. sum_medians cpus);
      ("setup_s", reference_s *. median !setup_times);
      ("peak_rss_mb", peak_rss_mb ());
      ("protocol_rounds", float_of_int (Array.fold_left ( + ) 0 rounds));
      ("cells_per_sec", ratio (float_of_int (Array.fold_left ( + ) 0 cells)) wall);
    ]

(* Traced: one untraced pass (engine counters around it), then one
   instrumented pass; the difference of their walls is the overhead. *)
let trace w size seed =
  let p = w.setup size seed in
  let reference, sim, skipped, ref_wall, ref_cpu = with_engine_counters (fun () -> run_all p) in
  let traced, facts = p.traced ~reference in
  let overhead =
    Option.fold ~none:0.0 ~some:(fun t -> t -. ref_wall) (List.assoc_opt "trace.wall" facts)
  in
  report
    ~attempted:(reference.checks + traced.checks)
    ~failures:(reference.failures @ traced.failures)
    per_layer
    ((("trace.overhead_s", overhead) :: facts)
    @ radio_facts ~domains:w.domains ~sim ~skipped ~wall:ref_wall ~cpu:ref_cpu)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size full|small]";
  exit 2

let () =
  let rec parse acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let num conv k = match conv (get k) with Some v -> v | None -> usage () in
  let seed = num int_of_string_opt "seed" and seconds = num float_of_string_opt "seconds" in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let size =
    match List.assoc_opt "size" opts with
    | None | Some "full" -> Full
    | Some "small" -> Small
    | Some _ -> usage ()
  in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  Protocols.ensure_registered ();
  Printf.printf
    {|{"host":{"recommended_domain_count":%d,"ocaml":"%s","word_size":%d},"workload":"%s","seed":%d,"domains":%d,"size":"%s","trace":%b}|}
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size w.name seed w.domains
    (match size with Full -> "full" | Small -> "small")
    traced;
  print_newline ();
  if traced then trace w size seed else measure w size seed seconds
