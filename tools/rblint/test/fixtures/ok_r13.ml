(* R13 clean fixture: hints computed from the round and captured immutable
   data, plus one that *reads* evolving state — reads are sound because
   the engine re-queries the hint every silent round. *)

module Engine = struct
  let run ~next_busy_round ~max_rounds () =
    let r = ref 0 in
    while !r < max_rounds do
      r := next_busy_round ~round:!r
    done
end

let scheduled schedule =
  Engine.run
    ~next_busy_round:(fun ~round ->
      if round + 1 < Array.length schedule then schedule.(round + 1)
      else round + 1)
    ~max_rounds:4 ()

let watermark () =
  let cursor = ref 3 in
  Engine.run
    ~next_busy_round:(fun ~round -> if round < !cursor then !cursor else round + 1)
    ~max_rounds:4 ()
