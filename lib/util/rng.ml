(* The 64-bit state lives in 8 bytes rather than a mutable [int64] field:
   storing into such a field boxes a fresh [int64] on every draw, while
   [Bytes.set_int64_le] writes it unboxed, so a draw whose result is
   consumed in this module ([int], [bool], [bernoulli]) allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = bits64 t in
  (* Mix once more so that parent and child streams are decorrelated even
     for adjacent integer seeds. *)
  of_state
    (Int64.mul (Int64.logxor s (Int64.shift_right_logical s 33)) 0xFF51AFD7ED558CCDL)

let split_n t n = Array.init n (fun _ -> split t)

(* Rejection sampling on the top 62 bits to avoid modulo bias.  A
   top-level loop rather than a local closure, so a draw allocates
   nothing. *)
let rec int_below t bound =
  let r = Int64.to_int (bits64 t) land max_int in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound

(* Inlined into [bernoulli], whose comparison then consumes the float
   unboxed. *)
let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let bernoulli_pow2 t e = bernoulli t (1.0 /. float_of_int (1 lsl e))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher–Yates over an index array: O(n) setup, exact. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
