type t = { len : int; words : int array }

let bits_per_word = 63

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; words = Array.make (words_for len) 0 }

let length t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  t.words.(i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / bits_per_word and o = i mod bits_per_word in
  if b then t.words.(w) <- t.words.(w) lor (1 lsl o)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl o)

(* Unchecked hot-path accessors for loops that have already bounds-checked
   their range.  [unsafe_set]/[unsafe_clear] are single-bit orientations
   of [set] without the branch on a bool argument. *)
(* rblint:allow R9 contract accessor: callers bounds-check [i] before the call; the word index [i / bits_per_word] is then within [words] by construction *)
let unsafe_get t i =
  Array.unsafe_get t.words (i / bits_per_word) lsr (i mod bits_per_word) land 1
  = 1

(* rblint:allow R9 contract accessor: callers bounds-check [i]; same word-index argument as [unsafe_get] *)
let unsafe_set t i =
  let w = i / bits_per_word in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w lor (1 lsl (i mod bits_per_word)))

(* rblint:allow R9 contract accessor: callers bounds-check [i]; same word-index argument as [unsafe_get] *)
let unsafe_clear t i =
  let w = i / bits_per_word in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i mod bits_per_word)))

let clear_range t ~lo ~hi =
  if lo < 0 || hi > t.len || lo > hi then invalid_arg "Bitvec.clear_range";
  if lo < hi then begin
    let wl = lo / bits_per_word and wh = (hi - 1) / bits_per_word in
    let mask_lo = (1 lsl (lo mod bits_per_word)) - 1 in
    (* Bits of the top word at offsets >= hi survive.  Two-step shift: the
       offset can be [bits_per_word - 1], and [lsl] by a full word is
       unspecified ([lsl] is right-associative — the inner shift must be
       parenthesized or the shift counts compose). *)
    let keep_hi = (-1 lsl ((hi - 1) mod bits_per_word)) lsl 1 in
    if wl = wh then t.words.(wl) <- t.words.(wl) land (mask_lo lor keep_hi)
    else begin
      t.words.(wl) <- t.words.(wl) land mask_lo;
      Array.fill t.words (wl + 1) (wh - wl - 1) 0;
      t.words.(wh) <- t.words.(wh) land keep_hi
    end
  end

let unit len i =
  let t = create len in
  set t i true;
  t

let is_zero t = Array.for_all (fun w -> w = 0) t.words

let equal a b = a.len = b.len && a.words = b.words

let check_lengths a b op =
  if a.len <> b.len then invalid_arg ("Bitvec." ^ op ^ ": length mismatch")

let xor_into ~dst src =
  check_lengths dst src "xor_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lxor src.words.(i)
  done

let word_parity w =
  let w = w lxor (w lsr 32) in
  let w = w lxor (w lsr 16) in
  let w = w lxor (w lsr 8) in
  let w = w lxor (w lsr 4) in
  let w = w lxor (w lsr 2) in
  let w = w lxor (w lsr 1) in
  w land 1

let dot a b =
  check_lengths a b "dot";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc lxor word_parity (a.words.(i) land b.words.(i))
  done;
  !acc = 1

(* De Bruijn lowest-set-bit: [w land (-w)] isolates the lowest set bit
   2^i, and multiplying the de Bruijn constant by 2^i brings a 6-bit
   window of the constant, distinct for each i, into bits 57..62;
   [debruijn_index] maps the window back to [i].  The constant is the
   standard 64-bit one: its windows at shifts 1..63 are exactly our
   windows at shifts 0..62, so they stay distinct in 63-bit arithmetic. *)
let debruijn = 0x03f79d71b4cb0a89

let debruijn_index =
  String.init 64 (fun window ->
      let rec find i =
        if i = bits_per_word then '\000'
        else if (debruijn * (1 lsl i)) lsr 57 = window then Char.chr i
        else find (i + 1)
      in
      find 0)

let lowest_bit w =
  if w = 0 then invalid_arg "Bitvec.lowest_bit: zero word";
  Char.code debruijn_index.[(debruijn * (w land -w)) lsr 57]

let first_set t =
  let rec find_word w =
    if w >= Array.length t.words then None
    else if t.words.(w) = 0 then find_word (w + 1)
    else Some ((w * bits_per_word) + lowest_bit t.words.(w))
  in
  find_word 0

let blit_words t dst ofs = Array.blit t.words 0 dst ofs (Array.length t.words)

let of_words len words =
  if len < 0 || Array.length words <> words_for len then
    invalid_arg "Bitvec.of_words: word count mismatch";
  let top = len mod bits_per_word in
  if top <> 0 && words.(Array.length words - 1) lsr top <> 0 then
    invalid_arg "Bitvec.of_words: bits set beyond the length";
  { len; words }

let popcount t =
  let count_word w =
    let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
    go 0 w
  in
  Array.fold_left (fun acc w -> acc + count_word w) 0 t.words

let random rng len =
  let t = create len in
  for i = 0 to len - 1 do
    if Rn_util.Rng.bool rng then set t i true
  done;
  t

let of_bools bs =
  let t = create (List.length bs) in
  List.iteri (fun i b -> if b then set t i true) bs;
  t

let to_bools t = List.init t.len (get t)

let to_string t =
  String.init t.len (fun i -> if get t i then '1' else '0')

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> set t i true
      | '0' -> ()
      | _ -> invalid_arg "Bitvec.of_string: expected only '0'/'1'")
    s;
  t
