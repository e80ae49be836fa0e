type packet = { coeffs : Bitvec.t; payload : Bitvec.t }

let source_packet ~msgs i =
  let k = Array.length msgs in
  if i < 0 || i >= k then invalid_arg "Rlnc.source_packet";
  { coeffs = Bitvec.unit k i; payload = Bitvec.copy msgs.(i) }

let packet_of_coeffs ~msgs coeffs =
  let k = Array.length msgs in
  if Bitvec.length coeffs <> k then invalid_arg "Rlnc.packet_of_coeffs";
  let msg_len = if k = 0 then 0 else Bitvec.length msgs.(0) in
  let payload = Bitvec.create msg_len in
  for i = 0 to k - 1 do
    if Bitvec.get coeffs i then Bitvec.xor_into ~dst:payload msgs.(i)
  done;
  { coeffs; payload }

let packet_bits p = Bitvec.length p.coeffs + Bitvec.length p.payload

(* Reduced row-echelon basis, flat.  The row with pivot [p] (the lowest
   set bit of its coefficient vector) lives at [basis.(p * stride)]: its
   [kw] coefficient words, then its [pw] payload words, in [Bitvec]'s word
   layout.  Every stored row is zero at every other stored row's pivot
   (full reduction), and [pivots] has bit [p] set iff row [p] is stored.
   [basis] is allocated on the first innovative packet; [scratch] holds
   the packet being reduced, so a non-innovative receive allocates
   nothing. *)
type t = {
  k : int;
  msg_len : int;
  kw : int; (* coefficient words per row *)
  pw : int; (* payload words per row *)
  stride : int; (* kw + pw *)
  pivots : int array; (* kw words: bit p set iff row p is stored *)
  scratch : int array; (* stride words *)
  mutable basis : int array; (* k * stride words, or [||] while rank = 0 *)
  mutable rank : int;
}

let create ~k ~msg_len =
  if k < 0 || msg_len < 0 then invalid_arg "Rlnc.create";
  let kw = Bitvec.words_for k and pw = Bitvec.words_for msg_len in
  {
    k;
    msg_len;
    kw;
    pw;
    stride = kw + pw;
    pivots = Array.make kw 0;
    scratch = Array.make (kw + pw) 0;
    basis = [||];
    rank = 0;
  }

let k t = t.k

let bpw = Bitvec.bits_per_word

let xor_words ~dst d src s len =
  for j = 0 to len - 1 do
    dst.(d + j) <- dst.(d + j) lxor src.(s + j)
  done

let receive t pkt =
  if Bitvec.length pkt.coeffs <> t.k then
    invalid_arg "Rlnc.receive: coefficient length mismatch";
  if Bitvec.length pkt.payload <> t.msg_len then
    invalid_arg "Rlnc.receive: payload length mismatch";
  if t.rank = t.k then false
  else begin
    let sc = t.scratch and basis = t.basis and stride = t.stride in
    Bitvec.blit_words pkt.coeffs sc 0;
    Bitvec.blit_words pkt.payload sc t.kw;
    (* Eliminate at every stored pivot the packet has set.  Row [p] is
       zero at all other pivots, so xoring it flips no other pivot bit:
       the rows to xor are read off the packet's own pivot bits, and the
       residual does not depend on the order they are applied in. *)
    for w = 0 to t.kw - 1 do
      let m = ref (sc.(w) land t.pivots.(w)) in
      while !m <> 0 do
        let p = (w * bpw) + Bitvec.lowest_bit !m in
        xor_words ~dst:sc 0 basis (p * stride) stride;
        m := !m land (!m - 1)
      done
    done;
    let w = ref 0 in
    while !w < t.kw && sc.(!w) = 0 do
      incr w
    done;
    if !w = t.kw then false
    else begin
      let pivot = (!w * bpw) + Bitvec.lowest_bit sc.(!w) in
      if t.rank = 0 then t.basis <- Array.make (t.k * stride) 0;
      let basis = t.basis in
      (* Back-substitute the new pivot into every stored row that has it
         set, keeping the basis fully reduced. *)
      let pword = pivot / bpw and pbit = 1 lsl (pivot mod bpw) in
      for w = 0 to t.kw - 1 do
        let m = ref t.pivots.(w) in
        while !m <> 0 do
          let q = (w * bpw) + Bitvec.lowest_bit !m in
          if basis.((q * stride) + pword) land pbit <> 0 then
            xor_words ~dst:basis (q * stride) sc 0 stride;
          m := !m land (!m - 1)
        done
      done;
      Array.blit sc 0 basis (pivot * stride) stride;
      t.pivots.(pword) <- t.pivots.(pword) lor pbit;
      t.rank <- t.rank + 1;
      true
    end
  end

let rank t = t.rank

let can_decode t = t.rank = t.k

let encode rng t =
  if t.rank = 0 then None
  else begin
    let coeffs = Array.make t.kw 0 and payload = Array.make t.pw 0 in
    let basis = t.basis and stride = t.stride in
    (* One coin per stored row in ascending pivot order, exactly the
       seed decoder's draws: every result depends on this stream. *)
    for w = 0 to t.kw - 1 do
      let m = ref t.pivots.(w) in
      while !m <> 0 do
        if Rn_util.Rng.bool rng then begin
          let row = ((w * bpw) + Bitvec.lowest_bit !m) * stride in
          xor_words ~dst:coeffs 0 basis row t.kw;
          xor_words ~dst:payload 0 basis (row + t.kw) t.pw
        end;
        m := !m land (!m - 1)
      done
    done;
    Some
      {
        coeffs = Bitvec.of_words t.k coeffs;
        payload = Bitvec.of_words t.msg_len payload;
      }
  end

let row_coeffs t p = Bitvec.of_words t.k (Array.sub t.basis (p * t.stride) t.kw)

let decode t =
  if not (can_decode t) then None
  else begin
    (* Fully reduced basis with rank = k means row i has coefficient
       vector e_i, so its payload is exactly message i. *)
    let msgs =
      Array.init t.k (fun i ->
          assert (Bitvec.equal (row_coeffs t i) (Bitvec.unit t.k i));
          Bitvec.of_words t.msg_len
            (Array.sub t.basis ((i * t.stride) + t.kw) t.pw))
    in
    Some msgs
  end

let infected t mu =
  if Bitvec.length mu <> t.k then invalid_arg "Rlnc.infected";
  let stored p = (t.pivots.(p / bpw) lsr (p mod bpw)) land 1 = 1 in
  let rec go p =
    p < t.k && ((stored p && Bitvec.dot (row_coeffs t p) mu) || go (p + 1))
  in
  go 0

let seed_with_sources t ~msgs =
  if Array.length msgs <> t.k then invalid_arg "Rlnc.seed_with_sources";
  Array.iteri (fun i _ -> ignore (receive t (source_packet ~msgs i))) msgs
