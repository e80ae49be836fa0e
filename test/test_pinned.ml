(* Results pinned by digest.  Each case runs the GST construction
   (Sequential and Pipelined, with virtual-distance learning) and the
   Theorem 1.1 broadcast on a fixed layered graph, prints every output
   field, and compares the MD5 of that text with a digest recorded before
   the assignment phase got its per-slot block scheduler and flat
   per-block state.

   The differential suites (test_engine_equiv.ml) run one protocol's
   callbacks under two engine paths, so a fault inside those callbacks,
   a block the scheduler stops polling, say, shows on both sides and
   cancels out.  A digest fixed in advance catches it.  A change that is
   meant to alter results (different RNG draws, a new schedule) must
   re-record the digests and say why. *)

open Rn_util
open Rn_broadcast

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let bools a =
  String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let construct_text ~mode ~graph ~seed =
  let r =
    Gst_distributed.construct ~mode ~learn_vd:true ~rng:(Rng.create ~seed)
      ~graph ~roots:[| 0 |] ()
  in
  let g = r.Gst_distributed.gst in
  Printf.sprintf
    "levels=%s\nparents=%s\nranks=%s\nhead_override=%s\nparent_rank=%s\n\
     vd=%s\nlayering=%d assignment=%d selftest=%d vd_rounds=%d total=%d \
     fixups=%d fallbacks=%d\n"
    (ints g.Gst.levels) (ints g.Gst.parents) (ints g.Gst.ranks)
    (bools g.Gst.head_override) (ints r.Gst_distributed.parent_rank)
    (ints r.Gst_distributed.vd) r.Gst_distributed.layering_rounds
    r.Gst_distributed.assignment_rounds r.Gst_distributed.selftest_rounds
    r.Gst_distributed.vd_rounds r.Gst_distributed.total_rounds
    r.Gst_distributed.class_fixups r.Gst_distributed.fallback_reactivations

let broadcast_text ~graph ~seed =
  let r = Single_broadcast.run ~rng:(Rng.create ~seed) ~graph ~source:0 () in
  Printf.sprintf
    "delivered=%b total=%d layering=%d construction=%d broadcast=%d rings=%d \
     width=%d received=%s\n"
    r.Single_broadcast.delivered r.Single_broadcast.rounds_total
    r.Single_broadcast.rounds_layering r.Single_broadcast.rounds_construction
    r.Single_broadcast.rounds_broadcast r.Single_broadcast.ring_count
    r.Single_broadcast.ring_width
    (bools r.Single_broadcast.received)

let case_text ~depth ~width ~seed =
  let graph =
    Rn_graph.Gen.layered_random ~rng:(Rng.create ~seed) ~depth ~width ~p:0.3
  in
  String.concat ""
    [
      construct_text ~mode:Gst_distributed.Sequential ~graph ~seed:(seed + 1);
      construct_text ~mode:Gst_distributed.Pipelined ~graph ~seed:(seed + 2);
      broadcast_text ~graph ~seed:(seed + 3);
    ]

(* (depth, width, seed, MD5 of [case_text]) *)
let cases =
  [
    (8, 4, 101, "75c6116e101381ab4d5c2cf4268ffc40");
    (9, 20, 102, "732337fdfb4ba96fc73da1da1c0aa51b");
    (10, 12, 103, "661aec935749bf1e93cfc9cb3651e6df");
    (12, 8, 104, "d8458c094d4a652746f4aa514617238b");
    (14, 16, 105, "e0d057e4cf6ff257c30e0bb6178eab1a");
    (15, 5, 106, "d0b61ce53000d88ee0a1dc77a9b0c84e");
    (17, 10, 107, "97af7e7ae4a65f5d7128ac6fa261ec6f");
    (19, 20, 108, "cd274cdc1473bd50e1544b3436ea4407");
    (21, 6, 109, "5134a7f622f17f341c2198dcc791f293");
    (24, 14, 110, "d51b8f8def0a0e8aaf6f9c03de4768dd");
    (27, 9, 111, "9c5981cdc0f9932548e284e8099d9a0f");
    (30, 18, 112, "96d2f27091c88f045a4004b1db8d6445");
  ]

let test_case (depth, width, seed, digest) () =
  let text = case_text ~depth ~width ~seed in
  Alcotest.(check string)
    (Printf.sprintf "depth %d width %d seed %d" depth width seed)
    digest
    (Digest.to_hex (Digest.string text))

let () =
  Alcotest.run "pinned"
    [
      ( "construct+broadcast",
        List.map
          (fun ((depth, width, seed, _) as c) ->
            Alcotest.test_case
              (Printf.sprintf "D=%d w=%d s=%d" depth width seed)
              `Quick (test_case c))
          cases );
    ]
