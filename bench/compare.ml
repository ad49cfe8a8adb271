(* Regression gate CLI over two `bench --profile --out` JSON reports.

   Usage:
     compare.exe BASELINE.json CURRENT.json [--threshold R] [--speedup-floor F]
       exit 0 when no phase regressed beyond the wall-time threshold AND
       the speedup contract holds (every recorded speedup at or above
       the floor and not collapsed versus baseline), 1 otherwise
     compare.exe --check-trace TRACE.json
       exit 0 when the file is a structurally valid Chrome trace with at
       least one complete span event, 1 otherwise
     compare.exe --check-journal JOURNAL.jsonl
       exit 0 when the file is a schema-valid per-request span journal
       with at least one line, 1 otherwise

   The comparison logic lives in Obs.Bench_compare (unit-tested); this
   file is only argument handling and I/O. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_report path =
  match Telemetry.Export.parse (read_file path) with
  | json -> json
  | exception Telemetry.Export.Parse_error msg ->
      Printf.eprintf "compare: %s does not parse as JSON: %s\n" path msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "compare: cannot read %s: %s\n" path msg;
      exit 2

let check_trace path =
  match Obs.Chrome_trace.validate (parse_report path) with
  | Ok k ->
      Printf.printf "trace ok: %s holds %d complete span event(s)\n" path k;
      exit 0
  | Error reason ->
      Printf.eprintf "trace INVALID: %s: %s\n" path reason;
      exit 1

let check_journal path =
  match Obs.Journal.validate_file path with
  | Ok 0 ->
      Printf.eprintf "journal INVALID: %s is empty\n" path;
      exit 1
  | Ok n ->
      let a = Obs.Journal.aggregate_of_text (read_file path) in
      Printf.printf
        "journal ok: %s holds %d schema-valid line(s) (served %d, degraded \
         %d, shed %d, p50 %.3f ms, p99 %.3f ms)\n"
        path n a.Obs.Journal.served a.Obs.Journal.degraded a.Obs.Journal.shed
        a.Obs.Journal.latency_p50 a.Obs.Journal.latency_p99;
      exit 0
  | Error reason ->
      Printf.eprintf "journal INVALID: %s: %s\n" path reason;
      exit 1
  | exception Sys_error msg ->
      Printf.eprintf "compare: cannot read %s: %s\n" path msg;
      exit 2

let compare_files ~threshold ~floor baseline current =
  let baseline = parse_report baseline and current = parse_report current in
  let verdicts, speedups =
    try
      ( Obs.Bench_compare.compare_reports ~threshold ~baseline ~current (),
        Obs.Bench_compare.compare_speedups ~floor ~baseline ~current () )
    with Obs.Bench_compare.Malformed msg ->
      Printf.eprintf "compare: malformed report: %s\n" msg;
      exit 2
  in
  print_string (Obs.Bench_compare.to_text ~threshold verdicts);
  print_string (Obs.Bench_compare.speedups_to_text ~floor speedups);
  exit
    (if Obs.Bench_compare.ok verdicts && Obs.Bench_compare.speedups_ok speedups
     then 0
     else 1)

let usage () =
  prerr_endline
    "usage: compare.exe BASELINE.json CURRENT.json [--threshold R] \
     [--speedup-floor F]\n\
    \       compare.exe --check-trace TRACE.json\n\
    \       compare.exe --check-journal JOURNAL.jsonl";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "--check-trace"; path ] -> check_trace path
  | _ :: [ "--check-journal"; path ] -> check_journal path
  | _ :: baseline :: current :: opts ->
      let threshold = ref 3. and floor = ref 0.95 in
      let rec parse_opts = function
        | [] -> ()
        | "--threshold" :: r :: rest -> (
            match float_of_string_opt r with
            | Some t when t > 0. ->
                threshold := t;
                parse_opts rest
            | _ ->
                prerr_endline "compare: --threshold expects a positive number";
                exit 2)
        | "--speedup-floor" :: f :: rest -> (
            match float_of_string_opt f with
            | Some x when x >= 0. ->
                floor := x;
                parse_opts rest
            | _ ->
                prerr_endline
                  "compare: --speedup-floor expects a non-negative number";
                exit 2)
        | _ -> usage ()
      in
      parse_opts opts;
      compare_files ~threshold:!threshold ~floor:!floor baseline current
  | _ -> usage ()
