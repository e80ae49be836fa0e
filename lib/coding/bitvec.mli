(** Fixed-length bit vectors over GF(2).

    Random linear network coding (§3.3.1) works over F₂: messages are bit
    vectors, coefficient vectors are bit vectors, and packets carry sums
    (XORs) of messages.  This module is the shared representation, bit-packed
    into 63-bit words. *)

type t

val create : int -> t
(** [create len] is the zero vector of length [len ≥ 0]. *)

val length : t -> int
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val bits_per_word : int
(** Bits stored per backing word (63 on a 64-bit platform).  Concurrent
    writers that partition the index space must align their partition
    boundaries to multiples of this so no two ever touch the same word —
    {!Rn_graph.Graph.shard_cuts} takes it as [align]. *)

val unsafe_get : t -> int -> bool

val unsafe_set : t -> int -> unit
(** [unsafe_set t i] sets bit [i] to one — no bounds check; the caller must
    guarantee [0 <= i < length t].  Hot-path variant for loops over an
    already-validated range. *)

val unsafe_clear : t -> int -> unit
(** [unsafe_clear t i] sets bit [i] to zero — same contract as
    {!unsafe_set}. *)

val clear_range : t -> lo:int -> hi:int -> unit
(** [clear_range t ~lo ~hi] zeroes bits [\[lo, hi)] with whole-word stores
    (O(range/63) rather than O(range)).
    @raise Invalid_argument unless [0 <= lo <= hi <= length t]. *)

val unit : int -> int -> t
(** [unit len i] is the standard basis vector e_i. *)

val is_zero : t -> bool

val equal : t -> t -> bool

val xor_into : dst:t -> t -> unit
(** [xor_into ~dst src] sets [dst <- dst XOR src].  Lengths must match. *)

val dot : t -> t -> bool
(** Inner product over GF(2): parity of the AND.  Lengths must match. *)

val first_set : t -> int option
(** Index of the lowest set bit, if any. *)

(** {2 Word access}

    For kernels that keep many vectors in one flat [int array] (the RLNC
    decoder's basis): a vector of length [len] is [words_for len] words,
    bit [i] at bit [i mod bits_per_word] of word [i / bits_per_word], and
    every bit at or beyond [len] zero. *)

val words_for : int -> int
(** Number of words backing a vector of the given length. *)

val lowest_bit : int -> int
(** [lowest_bit w] is the index of the lowest set bit of the non-zero word
    [w], in a constant number of steps (no per-bit loop).
    @raise Invalid_argument if [w = 0]. *)

val blit_words : t -> int array -> int -> unit
(** [blit_words t dst ofs] copies the [words_for (length t)] words of [t]
    into [dst] starting at [ofs]. *)

val of_words : int -> int array -> t
(** [of_words len words] is the vector of length [len] backed by [words]
    itself (not copied: the caller hands the array over).
    @raise Invalid_argument unless [words] has [words_for len] words and
    no bit set at or beyond [len]. *)

val popcount : t -> int

val random : Rn_util.Rng.t -> int -> t
(** Uniformly random vector of the given length. *)

val of_bools : bool list -> t
val to_bools : t -> bool list

val to_string : t -> string
(** E.g. ["1011"], index 0 leftmost. *)

val of_string : string -> t
(** Inverse of [to_string].  @raise Invalid_argument on non-[01]
    characters. *)
