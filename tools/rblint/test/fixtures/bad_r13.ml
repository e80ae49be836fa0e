(* R13 fixture: ~next_busy_round hints that are not pure functions of the
   round — one draws randomness, one writes captured state.  No protocol
   record is built here, so the registry rule (R14) stays quiet and R13
   alone speaks.  The local [Rng] is sealed like the real Rn_util.Rng. *)

module Rng : sig
  type t

  val create : seed:int -> t
  val int : t -> int -> int
end = struct
  type t = int ref

  let create ~seed = ref seed

  let int r b =
    incr r;
    !r mod b
end

module Engine = struct
  let run ~next_busy_round ~max_rounds () =
    let r = ref 0 in
    while !r < max_rounds do
      r := next_busy_round ~round:!r
    done
end

(* a random hint desynchronizes the skipping schedule from the reference *)
let jittered () =
  let rng = Rng.create ~seed:7 in
  Engine.run
    ~next_busy_round:(fun ~round -> round + 1 + Rng.int rng 3)
    ~max_rounds:4 ()

(* hints may be re-queried or skipped, so even a write desynchronizes *)
let memoized () =
  let last = ref 0 in
  Engine.run
    ~next_busy_round:(fun ~round ->
      last := round;
      !last + 2)
    ~max_rounds:4 ()
