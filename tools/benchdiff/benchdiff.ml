(* benchdiff — regression gate over the bench perf records.

   Usage: benchdiff BASELINE.json CURRENT.json [--threshold PCT]

   Both files are `BENCH_engine.json`-format records written by
   [bench/main.exe --json]: a header, then one record per line.  The
   parser is [Rn_util.Jsons.parse_obj] applied line by line — the bench
   writer emits exactly one flat object per record line (with a trailing
   comma, which the parser tolerates), so lines that don't parse as flat
   objects (the header and the array/object brackets) are skipped.  For
   every experiment id present in both files:

   - [rounds] must match the baseline exactly: the simulation is
     deterministic per seed, so any drift in total simulated rounds is a
     semantic change, not noise, and fails regardless of threshold;
   - [rounds_per_sec] must not regress below baseline × (1 - PCT/100)
     (default 25%).  Speedups and experiments missing on either side are
     reported but never fail the gate, so the baseline can cover a
     superset of the experiments a smoke run executes;
   - [cells_per_sec] (campaign capacity rows) is gated with the same
     floor when the baseline record has it too, and is informational
     when the baseline predates the field;
   - per-phase aggregate fields ([phase_deliveries]/[phase_tx]/
     [phase_collisions], compact JSON int arrays from the metrics
     registry) are gated exactly when the baseline record has them too —
     deterministic like [rounds] — and are informational when the
     baseline predates them.

   When a throughput row fails, both records' host descriptors (the
   header's [host] object: nproc, recommended domain count, OCaml
   version) are printed after the rows, since a rounds/sec floor only
   means something between like hosts; a record without one prints as
   unrecorded.  Hosts never fail the gate themselves.

   Experiments present only in the current run are new — informational,
   never a failure, even when the runs share nothing (a run made of only
   new experiments passes; the ids join the baseline whenever it is next
   re-seeded).  A baseline row missing from the current run is skipped
   when its whole group did not run, but fails when the group ran: a row
   [X[variant]] belongs to group [X], and if any current row is [X] or
   [X[…]], a dropped variant is a lost gate, not a smaller run.

   Exit codes: 0 ok, 1 regression, 2 usage/parse error. *)

open Rn_util

type experiment = {
  id : string;
  rounds : int;
  rounds_per_sec : float;
  skipped : int option;
      (* fast-forwarded silent rounds (skip hint); deterministic like
         [rounds], gated exactly when the baseline records it too *)
  cells_per_sec : float option;
      (* campaign rows only; floor-gated like [rounds_per_sec] *)
  phases : (string * int list) list;
      (* optional per-phase int-array fields *)
}

let phase_field_names = [ "phase_deliveries"; "phase_tx"; "phase_collisions" ]

(* [X] for a row id [X[variant]] or [X]. *)
let group_of id =
  match String.index_opt id '[' with Some i -> String.sub id 0 i | None -> id

let fail_usage () =
  prerr_endline "usage: benchdiff BASELINE.json CURRENT.json [--threshold PCT]";
  exit 2

let read_lines path =
  match open_in_bin path with
  | exception Sys_error msg ->
      Printf.eprintf "benchdiff: %s\n" msg;
      exit 2
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let parse_experiments path =
  let record line =
    match Jsons.parse_obj line with
    | Error _ -> None (* header / bracket lines are not records *)
    | Ok fields -> (
        match Jsons.str_mem "id" fields with
        | None -> None (* the suite header object has no "id" *)
        | Some id -> (
            match
              ( Jsons.int_mem "rounds" fields,
                Jsons.float_mem "rounds_per_sec" fields )
            with
            | Some rounds, Some rps ->
                Some
                  {
                    id;
                    rounds;
                    rounds_per_sec = rps;
                    skipped = Jsons.int_mem "skipped_rounds" fields;
                    cells_per_sec = Jsons.float_mem "cells_per_sec" fields;
                    phases =
                      List.filter_map
                        (fun k ->
                          Option.map (fun v -> (k, v)) (Jsons.ints_mem k fields))
                        phase_field_names;
                  }
            | _ ->
                Printf.eprintf "benchdiff: malformed record in %s: %s\n" path
                  line;
                exit 2))
  in
  let exps = List.filter_map record (read_lines path) in
  (match exps with
  | [] ->
      Printf.eprintf "benchdiff: no experiments found in %s\n" path;
      exit 2
  | _ :: _ -> ());
  exps

(* The header's ["host": {...}] object as written; records that predate
   it have none. *)
let host_of path =
  let prefix = "\"host\":" in
  let strip_comma s =
    if String.ends_with ~suffix:"," s then String.sub s 0 (String.length s - 1)
    else s
  in
  List.find_map
    (fun line ->
      let line = String.trim line in
      if String.starts_with ~prefix line then
        let p = String.length prefix in
        let rest = String.sub line p (String.length line - p) in
        Some (strip_comma (String.trim rest))
      else None)
    (read_lines path)
  |> Option.value ~default:"unrecorded"

let () =
  let baseline_path, current_path, threshold =
    match Array.to_list Sys.argv with
    | [ _; b; c ] -> (b, c, 25.0)
    | [ _; b; c; "--threshold"; pct ] -> (
        match float_of_string_opt pct with
        | Some t when t > 0.0 && t < 100.0 -> (b, c, t)
        | _ -> fail_usage ())
    | _ -> fail_usage ()
  in
  let baseline = parse_experiments baseline_path in
  let current = parse_experiments current_path in
  let failures = ref 0 in
  let throughput_failures = ref 0 in
  let compared = ref 0 in
  let floor_of base = base *. (1.0 -. (threshold /. 100.0)) in
  List.iter
    (fun cur ->
      match List.find_opt (fun b -> String.equal b.id cur.id) baseline with
      | None ->
          Printf.printf "%-4s new experiment (no baseline), informational\n"
            cur.id
      | Some base ->
          incr compared;
          let rounds_ok = cur.rounds = base.rounds in
          if not rounds_ok then begin
            incr failures;
            Printf.printf
              "%-4s FAIL rounds drifted: %d -> %d (deterministic count must \
               match baseline exactly)\n"
              cur.id base.rounds cur.rounds
          end;
          (match (base.skipped, cur.skipped) with
          | Some b, Some c when b <> c ->
              incr failures;
              Printf.printf
                "%-4s FAIL skipped rounds drifted: %d -> %d (deterministic \
                 count must match baseline exactly)\n"
                cur.id b c
          | Some _, None ->
              incr failures;
              Printf.printf
                "%-4s FAIL skipped_rounds field disappeared from the current \
                 record\n"
                cur.id
          | None, Some _ ->
              Printf.printf
                "%-4s note skipped_rounds absent in baseline, informational\n"
                cur.id
          | Some _, Some _ | None, None -> ());
          List.iter
            (fun (k, v) ->
              match List.assoc_opt k base.phases with
              | None ->
                  Printf.printf
                    "%-4s note per-phase field %S absent in baseline, \
                     informational\n"
                    cur.id k
              | Some bv ->
                  if not (List.equal Int.equal bv v) then begin
                    incr failures;
                    Printf.printf
                      "%-4s FAIL per-phase field %S drifted (deterministic \
                       aggregate must match baseline exactly)\n"
                      cur.id k
                  end)
            cur.phases;
          (match (base.cells_per_sec, cur.cells_per_sec) with
          | Some b, Some c when c < floor_of b ->
              incr failures;
              incr throughput_failures;
              Printf.printf
                "%-4s FAIL campaign throughput regressed beyond %.0f%%: %.1f \
                 -> %.1f cells/s (floor %.1f)\n"
                cur.id threshold b c (floor_of b)
          | Some _, None ->
              incr failures;
              Printf.printf
                "%-4s FAIL cells_per_sec field disappeared from the current \
                 record\n"
                cur.id
          | None, Some _ ->
              Printf.printf
                "%-4s note cells_per_sec absent in baseline, informational\n"
                cur.id
          | Some _, Some _ | None, None -> ());
          if cur.rounds_per_sec < floor_of base.rounds_per_sec then begin
            incr failures;
            incr throughput_failures;
            Printf.printf
              "%-4s FAIL throughput regressed beyond %.0f%%: %.0f -> %.0f \
               rounds/s (floor %.0f)\n"
              cur.id threshold base.rounds_per_sec cur.rounds_per_sec
              (floor_of base.rounds_per_sec)
          end
          else if rounds_ok then
            Printf.printf
              "%-4s ok   rounds=%d  %.0f -> %.0f rounds/s (%+.1f%%)\n" cur.id
              cur.rounds base.rounds_per_sec cur.rounds_per_sec
              (if base.rounds_per_sec > 0.0 then
                 (cur.rounds_per_sec -. base.rounds_per_sec)
                 /. base.rounds_per_sec *. 100.0
               else 0.0))
    current;
  List.iter
    (fun b ->
      if not (List.exists (fun c -> String.equal c.id b.id) current) then
        if
          List.exists
            (fun c -> String.equal (group_of c.id) (group_of b.id))
            current
        then begin
          incr failures;
          Printf.printf
            "%-4s FAIL missing from the current run although group %s ran\n"
            b.id (group_of b.id)
        end
        else Printf.printf "%-4s not in current run, skipped\n" b.id)
    baseline;
  if !throughput_failures > 0 then begin
    Printf.printf "host baseline: %s\n" (host_of baseline_path);
    Printf.printf "host current:  %s\n" (host_of current_path)
  end;
  if !compared = 0 then
    (* Every current experiment is new: nothing to gate.  [parse_experiments]
       already rejected empty runs, so this is the all-new case. *)
    Printf.printf
      "benchdiff: no overlapping experiments — %d new experiment(s), \
       informational only\n"
      (List.length current);
  if !failures > 0 then begin
    Printf.printf "benchdiff: %d regression(s) vs %s (threshold %.0f%%)\n"
      !failures baseline_path threshold;
    exit 1
  end
  else
    Printf.printf "benchdiff: ok (%d experiment(s) within %.0f%%)\n" !compared
      threshold
