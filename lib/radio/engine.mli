(** Synchronous radio-network round engine.

    Implements the model of §1.1 of the paper exactly:

    - time advances in synchronous rounds [0, 1, 2, …];
    - in each round every node either transmits one packet or listens
      (half-duplex: a transmitter receives nothing that round);
    - a listener receives a packet iff {e exactly one} of its neighbors
      transmits;
    - if two or more neighbors transmit, a listener observes [Collision]
      (the special symbol ⊤) when collision detection is available, and
      observes [Silence] — indistinguishable from nobody transmitting —
      when it is not.

    Protocols are given as two callbacks closing over their own per-node
    state; the engine owns nothing but the schedule.  Packet contents are a
    type parameter: the model's only constraint is that a packet carries
    [B = Ω(log n)] bits, i.e. O(1) node ids — each protocol's message type
    documents what its packets carry. *)

type detection =
  | Collision_detection  (** listeners can distinguish ⊤ from silence *)
  | No_collision_detection
      (** collisions are delivered as [Silence]; protocols cannot cheat *)

type 'msg action =
  | Sleep  (** neither transmit nor listen; reception is not computed *)
  | Listen
  | Transmit of 'msg

type 'msg reception =
  | Silence
  | Collision  (** only ever delivered under [Collision_detection] *)
  | Received of 'msg

type 'msg protocol = {
  decide : round:int -> node:int -> 'msg action;
      (** called once per node per round, before any delivery *)
  deliver : round:int -> node:int -> 'msg reception -> unit;
      (** called once per {e listening} node per round, after all nodes
          decided *)
}

type stats = {
  mutable rounds : int;  (** rounds actually simulated *)
  mutable transmissions : int;  (** total Transmit actions *)
  mutable deliveries : int;  (** successful single-transmitter receptions *)
  mutable collisions : int;  (** listener-rounds with ≥ 2 transmitting neighbors *)
  mutable busy_rounds : int;  (** rounds with at least one transmission *)
}

val fresh_stats : unit -> stats

type outcome =
  | Completed of int
      (** [Completed r]: the stop predicate held before round [r]; [r]
          rounds were simulated *)
  | Out_of_budget of int  (** the round budget was exhausted first *)

val rounds_of_outcome : outcome -> int
(** The simulated round count in either case. *)

val completed_exn : outcome -> int
(** @raise Failure if the run did not complete. *)

type 'msg trace_event =
  | Ev_transmit of { node : int; msg : 'msg }
  | Ev_receive of { node : int; reception : 'msg reception }

val total_simulated_rounds : unit -> int
(** Rounds simulated process-wide since startup, summed over every [run]
    (across all domains; the counter is atomic).  The bench harness reads
    the delta around an experiment to report rounds/sec. *)

val total_skipped_rounds : unit -> int
(** Rounds fast-forwarded process-wide by the silent-round skip
    ([next_busy_round]).  Disjoint from {!total_simulated_rounds}: a round
    is counted in exactly one of the two tallies, so honest throughput is
    [simulated / wall] and a bench can report the skipped volume
    separately.  Protocol-visible state ([stats.rounds], metrics rows,
    [after_round] calls) does not distinguish the two. *)

val inject_silence : bool Atomic.t
(** Debug probe for the contracts suite: when set, {!run} delivers one
    spurious [Silence] to every listener before its real reception of the
    round (if any).  A protocol honouring the R11 silence-purity contract
    (DESIGN.md §12) produces byte-identical results either way —
    [test/test_contracts.ml] asserts exactly that for every registered
    pipeline.  Read once per run; defaults to [false]. *)

val reference_mode : bool Atomic.t
(** Debug probe restoring the reference semantics: when set, {!run}
    ignores [decide_active] (full decide scan) and [next_busy_round] (no
    skip), and delivers [Silence] to every listener nobody reached — the
    observable behaviour of the seed list-based engine, deliver order
    included.  The bench's reference rows and the differential suite
    ([test/test_engine_equiv.ml]) run under it.  Read once per run;
    defaults to [false]. *)

val run :
  ?stats:stats ->
  ?metrics:Rn_obs.Metrics.t ->
  ?on_round:(round:int -> 'msg trace_event list -> unit) ->
  ?after_round:(round:int -> unit) ->
  ?decide_active:(round:int -> int array -> int) ->
  ?next_busy_round:(round:int -> int) ->
  ?validate:bool ->
  ?domains:int ->
  graph:Rn_graph.Graph.t ->
  detection:detection ->
  protocol:'msg protocol ->
  stop:(round:int -> bool) ->
  max_rounds:int ->
  unit ->
  outcome
(** [run ~graph ~detection ~protocol ~stop ~max_rounds ()] simulates rounds
    until [stop ~round] holds (checked before each round) or [max_rounds]
    rounds have been simulated.

    {b Deliveries.}  Only listeners inside a transmitter's neighborhood
    receive a [deliver] call: an untouched listener would have heard
    [Silence], and every protocol here treats such a delivery as a no-op
    (the R11 silence-purity contract, DESIGN.md §12).  Under
    [No_collision_detection] a collided listener still gets its [Silence].
    Within a round, listeners are delivered in descending decide order —
    the reference engine's order restricted to the touched listeners.  When
    [on_round] is set or {!reference_mode} is on, every listener is
    delivered, silent ones included.

    [metrics], when given, receives one [Rn_obs.Metrics.record_round] call
    at the end of every round (this round's transmissions/deliveries/
    collisions, attributed to the registry's current phase) — pure int
    mutation, so the quiet-round 0-word budget still holds; protocols
    annotate phase boundaries from [after_round] (see [Rn_obs.Phase]).
    [on_round], when given, receives every transmit/receive event of the
    round — intended for examples and debugging, not benchmarks; it
    disables the skip.  [after_round] is a cheap per-round hook called
    after all deliveries of a round; protocol state machines use it to
    advance phase counters.

    [decide_active], when given, replaces the every-node decide scan: each
    round the engine hands it a reusable buffer of length [n]; the protocol
    writes the ids of the awake nodes into a prefix and returns the prefix
    length, and [decide] is then called on exactly those nodes (in buffer
    order) — every other node implicitly [Sleep]s that round.  The ids of a
    round must be distinct and in [\[0, n)] (distinctness is the protocol's
    obligation; a duplicated id would act twice).  [validate] (default
    [false]) enforces distinctness, raising [Invalid_argument] naming the
    offending id and round; it costs one array read/write per active id and
    one length-[n] allocation per run, so it is reserved for tests, and it
    checks the whole prefix before any [decide] call of the round.  The
    in-range check is always on.

    [next_busy_round ~round] returns the earliest round [>= round] in which
    some node {e may} transmit; every round strictly before it is
    fast-forwarded without calling [decide].  A skipped round still checks
    [stop], increments [stats.rounds], records a zero metrics row and fires
    [after_round], so the protocol-visible clock and the metrics export are
    identical to simulating it; it is credited to {!total_skipped_rounds}.
    Returning [round] means "cannot promise silence now" and costs nothing.
    The hint is re-queried every round (protocol state may change in
    [after_round]), so it should be O(1).  It must be {e sound}: claiming
    silence for a round in which a node would have transmitted silently
    changes the simulation (DESIGN.md §10).  Protocols whose transmissions
    are randomized every round (Decay, jammers) must not offer one.

    [domains] (default [1]) cuts the node range into that many contiguous
    shards run on pool workers ({!Runner.Pool}); [1] runs inline with no
    pool and no barrier.  For protocols whose [decide]/[deliver] touch only
    per-node state — every protocol in this tree — outcome, stats, metrics,
    traces and every callback observation are byte-identical for every
    [domains] value, and independent of how many workers the pool could
    spare.  Cross-node aggregates must be [Atomic.t] (see Decay's missing
    count).  [stop], [decide_active], [next_busy_round], [on_round] and
    [after_round] always run in the calling domain, between rounds.  An
    exception raised by a callback inside a shard ends the run after the
    phase it was raised in; the lowest shard's exception is re-raised.

    The round loop allocates nothing beyond the [Received] wrappers handed
    to successful listeners and, when tracing, the events;
    [test/test_alloc.ml] enforces this budget under [Gc.minor_words] and
    rblint rule R5 (DESIGN.md §8) statically rejects list traversals in the
    [@@zero_alloc_hot]-tagged loop.  A round costs O(n / domains) decide
    calls (or O(|active|)) plus O(Σ deg) over transmitters.

    @raise Invalid_argument if [domains < 1], [next_busy_round] goes
    backwards, or on a bad [decide_active] id/count. *)
