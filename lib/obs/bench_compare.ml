(* Regression gate over two `bench --profile` JSON reports.

   The comparison is per phase on wall_ms with a generous multiplicative
   threshold plus an additive floor: ratio = (cur + min_ms) / (base +
   min_ms).  The floor keeps sub-millisecond phases from tripping the
   gate on scheduler noise while leaving real phases (tens of ms)
   essentially governed by the raw ratio.  A phase present in the
   baseline but missing from the current report is a failure (a silently
   dropped phase must not pass the gate); new phases are reported but
   never fail. *)

type phase = { name : string; wall_ms : float }

type verdict = {
  name : string;
  baseline_ms : float option;
  current_ms : float option;
  ratio : float;
  regressed : bool;
}

exception Malformed of string

let phases_of_report json =
  match Telemetry.Export.member "phases" json with
  | Some (Telemetry.Export.Arr entries) ->
      List.map
        (fun entry ->
          match
            ( Telemetry.Export.member "name" entry,
              Option.bind
                (Telemetry.Export.member "wall_ms" entry)
                Telemetry.Export.to_float )
          with
          | Some (Telemetry.Export.Str name), Some wall_ms ->
              if not (Float.is_finite wall_ms) || wall_ms < 0. then
                raise
                  (Malformed
                     (Printf.sprintf "phase %S has invalid wall_ms" name));
              { name; wall_ms }
          | _ -> raise (Malformed "phase entry missing name/wall_ms"))
        entries
  | Some _ -> raise (Malformed "\"phases\" is not an array")
  | None -> raise (Malformed "report has no \"phases\" field")

let compare_reports ?(threshold = 3.) ?(min_ms = 0.5) ~baseline ~current () =
  if threshold <= 0. then
    invalid_arg "Obs.Bench_compare: threshold must be positive";
  if min_ms < 0. then invalid_arg "Obs.Bench_compare: min_ms must be >= 0";
  let base = phases_of_report baseline in
  let cur = phases_of_report current in
  let find name (ps : phase list) =
    List.find_opt (fun (p : phase) -> p.name = name) ps
  in
  let of_base (b : phase) =
    match find b.name cur with
    | None ->
        {
          name = b.name;
          baseline_ms = Some b.wall_ms;
          current_ms = None;
          ratio = Float.infinity;
          regressed = true;
        }
    | Some c ->
        let ratio = (c.wall_ms +. min_ms) /. (b.wall_ms +. min_ms) in
        {
          name = b.name;
          baseline_ms = Some b.wall_ms;
          current_ms = Some c.wall_ms;
          ratio;
          regressed = ratio > threshold;
        }
  in
  let new_phases =
    List.filter_map
      (fun (c : phase) ->
        if find c.name base = None then
          Some
            {
              name = c.name;
              baseline_ms = None;
              current_ms = Some c.wall_ms;
              ratio = 1.;
              regressed = false;
            }
        else None)
      cur
  in
  List.map of_base base @ new_phases

let ok verdicts = not (List.exists (fun v -> v.regressed) verdicts)

(* --- the speedup contract ------------------------------------------- *)

(* The report's "speedup" object records ratios that are a contract,
   not an observation: every recorded value must stay at or above 1.0x
   (modulo a small measurement-noise allowance, the [floor]) and must
   not collapse relative to the committed baseline (the [slack] guards
   entries whose baseline sits well above 1, like the shared
   lambda-path factorization). *)

type speedup_verdict = {
  kernel : string;
  baseline_x : float option;
  current_x : float option;
  speedup_regressed : bool;
  reason : string;  (** "" when ok *)
}

let speedups_of_report json =
  match Telemetry.Export.member "speedup" json with
  | None -> []
  | Some (Telemetry.Export.Obj kvs) ->
      List.map
        (fun (k, v) ->
          match Telemetry.Export.to_float v with
          | Some x when Float.is_finite x && x >= 0. -> (k, x)
          | _ ->
              raise
                (Malformed
                   (Printf.sprintf "speedup entry %S is not a finite number" k)))
        kvs
  | Some _ -> raise (Malformed "\"speedup\" is not an object")

let compare_speedups ?(floor = 0.95) ?(slack = 0.5) ~baseline ~current () =
  if floor < 0. then invalid_arg "Obs.Bench_compare: floor must be >= 0";
  if slack < 0. || slack > 1. then
    invalid_arg "Obs.Bench_compare: slack must lie in [0, 1]";
  let base = speedups_of_report baseline in
  let cur = speedups_of_report current in
  let of_base (k, bx) =
    match List.assoc_opt k cur with
    | None ->
        {
          kernel = k;
          baseline_x = Some bx;
          current_x = None;
          speedup_regressed = true;
          reason = "missing from current report";
        }
    | Some cx ->
        let reason =
          if cx < floor then
            Printf.sprintf "%.2fx is below the %.2fx contract floor" cx floor
          else if cx < slack *. bx then
            Printf.sprintf "%.2fx collapsed from baseline %.2fx" cx bx
          else ""
        in
        {
          kernel = k;
          baseline_x = Some bx;
          current_x = Some cx;
          speedup_regressed = reason <> "";
          reason;
        }
  in
  let new_entries =
    List.filter_map
      (fun (k, cx) ->
        if List.mem_assoc k base then None
        else
          let reason =
            if cx < floor then
              Printf.sprintf "%.2fx is below the %.2fx contract floor" cx floor
            else ""
          in
          Some
            {
              kernel = k;
              baseline_x = None;
              current_x = Some cx;
              speedup_regressed = reason <> "";
              reason;
            })
      cur
  in
  List.map of_base base @ new_entries

let speedups_ok verdicts =
  not (List.exists (fun v -> v.speedup_regressed) verdicts)

let describe_speedup v =
  let x = function Some v -> Printf.sprintf "%5.2fx" v | None -> "  miss" in
  Printf.sprintf "  %-28s base %s  cur %s  %s" v.kernel (x v.baseline_x)
    (x v.current_x)
    (if v.speedup_regressed then "REGRESSED: " ^ v.reason
     else if v.baseline_x = None then "new"
     else "ok")

let speedups_to_text ?(floor = 0.95) verdicts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "speedup contract (floor %.2fx):\n" floor);
  List.iter
    (fun v ->
      Buffer.add_string buf (describe_speedup v);
      Buffer.add_char buf '\n')
    verdicts;
  Buffer.add_string buf
    (if speedups_ok verdicts then "PASS: speedup contract holds\n"
     else "FAIL: speedup contract violated\n");
  Buffer.contents buf

let describe_verdict v =
  let ms = function Some v -> Printf.sprintf "%9.3f" v | None -> "  missing" in
  Printf.sprintf "  %-28s base %s ms  cur %s ms  ratio %5.2f  %s" v.name
    (ms v.baseline_ms) (ms v.current_ms) v.ratio
    (if v.regressed then "REGRESSED"
     else if v.baseline_ms = None then "new"
     else "ok")

let to_text ?(threshold = 3.) verdicts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "bench comparison (threshold %.2fx):\n" threshold);
  List.iter
    (fun v ->
      Buffer.add_string buf (describe_verdict v);
      Buffer.add_char buf '\n')
    verdicts;
  Buffer.add_string buf
    (if ok verdicts then "PASS: no phase regressed\n"
     else "FAIL: at least one phase regressed\n");
  Buffer.contents buf
