(** Distributed BFS layerings.

    Two ways for every node to learn its BFS level (distance to the
    source(s)):

    - {!decay_bfs} (§2.2.2, no collision detection): [D] epochs of
      [Θ(log n)] Decay phases; the epoch in which a node first receives a
      probe is its level.  [O(D log² n)] rounds.
    - {!collision_wave} (§2.3, requires collision detection): the source
      transmits every round and every node starts transmitting the round
      after it first hears {e anything} — a message or the collision symbol
      ⊤.  The wavefront advances one hop per round, so the layering takes
      exactly [D] rounds.  This [Θ(log² n)]-factor gap is what makes the
      collision-detection model faster here. *)

open Rn_util
open Rn_radio

type result = {
  levels : int array;  (** [-1] if the node was never reached *)
  rounds : int;
  stats : Engine.stats;
}

val decay_bfs :
  ?params:Params.t ->
  ?max_rounds:int ->
  rng:Rng.t ->
  graph:Rn_graph.Graph.t ->
  sources:int array ->
  unit ->
  result

val collision_wave :
  ?max_rounds:int ->
  graph:Rn_graph.Graph.t ->
  sources:int array ->
  unit ->
  result
(** Deterministic; needs no randomness.  Runs under
    [Collision_detection]. *)
