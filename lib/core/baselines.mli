(** Baseline algorithms the paper compares against (§1.3).

    - {!decay_broadcast}: the BGI Decay broadcast [2],
      [O(D log n + log² n)] rounds — re-exported from {!Decay} for
      discoverability.
    - {!cr_broadcast}: the Czumaj–Rytter / Kowalski–Pelc-shaped
      [O(D log(n/D) + log² n)] baseline.  The original algorithms build on
      selective families; per DESIGN.md §4 we use the standard
      truncated-ladder stand-in: Decay whose probability ladder stops at
      [2^{-(⌈log(n/D)⌉+1)}], interleaved with periodic full-range phases so
      dense neighborhoods still resolve.  On workloads whose per-layer
      degrees are [O(n/D)] this exhibits the [D log(n/D)] growth the
      comparison needs.
    - {!routing_multi}: store-and-forward multi-message broadcast — every
      holder, when its Decay coin fires, transmits one {e uncoded} message
      chosen uniformly from those it holds.  The coding-vs-routing
      comparison of [11] (experiment E10).
    - {!sequential_multi}: [k] back-to-back single-message Decay
      broadcasts — the naive [O(k · (D log n + log² n))] upper bound. *)

open Rn_util
open Rn_radio

val decay_broadcast :
  ?params:Params.t ->
  ?metrics:Rn_obs.Metrics.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  unit ->
  Decay.result

val cr_broadcast :
  ?params:Params.t ->
  ?metrics:Rn_obs.Metrics.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  diameter:int ->
  unit ->
  Decay.result
(** [diameter] is the constant-factor estimate of [D] the model grants
    every node (§1.1).  [metrics], when given, records every round with
    one short³+full schedule cycle per phase id and folds first-receive
    rounds into the histogram after the run.  The run offers the engine no
    active set or skip hint: every node may receive, and holders draw a
    ladder coin each round. *)

type multi_result = {
  rounds : int;
  delivered : bool;
  complete_round : int array;
      (** first round each node held all [k] messages; [-1] = never *)
  stats : Engine.stats;
}

val routing_multi :
  ?params:Params.t ->
  ?max_rounds:int ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  k:int ->
  unit ->
  multi_result

val sequential_multi :
  ?params:Params.t ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  source:int ->
  k:int ->
  unit ->
  multi_result
