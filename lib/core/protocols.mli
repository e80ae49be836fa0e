(** Populates {!Rn_radio.Registry} with every pipeline in this library.

    Call {!ensure_registered} once at startup (rbcast, bench, and the test
    suites do) and then enumerate via [Registry.all]/[Registry.names].
    Each entry's [run] derives all randomness from its [seed] argument, so
    results are deterministic per (graph, seed) — the contracts suite
    relies on that for byte-identity checks.

    rblint's R14 (DESIGN.md §12) closes the loop statically: a pipeline in
    [lib/] that constructs an [Engine.protocol] and drives an engine but is
    not reachable from a registration below is a lint error. *)

val ensure_registered : unit -> unit
(** Idempotent and thread-safe; the first call registers all entries. *)
