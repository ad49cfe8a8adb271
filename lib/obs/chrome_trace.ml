(* Chrome trace-event exporter.

   Captures span completions (via [Telemetry.Span.on_complete]) while a
   capture is active and renders them as "complete" ("ph":"X") events in
   the Trace Event Format understood by chrome://tracing and Perfetto:
   one event per span execution with microsecond timestamp and duration,
   on one track (tid) per domain: the listener runs on the domain that
   closed the span, so spans of concurrent workers never share a track.

   The capture buffer is intentionally NOT hooked to [Registry.reset]:
   profiling drivers reset the registry between phases, and the trace
   should keep accumulating across those resets until [stop]. *)

type event = { name : string; start_ns : float; dur_ns : float; tid : int }

let max_events = 100_000
let capturing = ref false
let buf : event list ref = ref [] (* newest first *)
let n = ref 0
let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Telemetry.Span.on_complete (fun name start_ns dur_ns ->
        if !capturing && !n < max_events then begin
          buf :=
            { name; start_ns; dur_ns; tid = (Domain.self () :> int) } :: !buf;
          incr n
        end)
  end

let start () =
  install ();
  buf := [];
  n := 0;
  capturing := true

let stop () = capturing := false
let n_events () = !n
let events () = List.rev !buf

(* [ts] counts from the capture's earliest span start: a clock origin
   (boot, on Linux) would leave too few significant digits in the
   rendered microseconds to tell a child's end from its parent's. *)
let event_json ~origin_ns e =
  Telemetry.Export.Obj
    [
      ("name", Telemetry.Export.Str e.name);
      ("cat", Telemetry.Export.Str "span");
      ("ph", Telemetry.Export.Str "X");
      ("ts", Telemetry.Export.Num ((e.start_ns -. origin_ns) /. 1e3));
      ("dur", Telemetry.Export.Num (Float.max 0. e.dur_ns /. 1e3));
      ("pid", Telemetry.Export.Num 1.);
      ("tid", Telemetry.Export.Num (float_of_int e.tid));
    ]

let to_json_value () =
  let evs = events () in
  let origin_ns =
    List.fold_left (fun m e -> Float.min m e.start_ns) infinity evs
  in
  Telemetry.Export.Obj
    [
      ( "traceEvents",
        Telemetry.Export.Arr (List.map (event_json ~origin_ns) evs) );
      ("displayTimeUnit", Telemetry.Export.Str "ms");
    ]

let to_json () = Telemetry.Export.render (to_json_value ())

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json ());
      output_char oc '\n')

(* A viewer draws each (pid, tid) track as a stack, so its events must
   nest.  Sorted by track, start, and longest first, an event breaks the
   nesting when it starts inside an open one and ends after it.  Times
   compare in whole nanoseconds, which the rendered microseconds of a
   relative [ts] hold exactly in any capture under 1000 s long. *)
let nests evs =
  let open Telemetry.Export in
  let ns k e =
    Float.round (1e3 *. Option.get (Option.bind (member k e) to_float))
  in
  let rec sweep open_ = function
    | [] -> true
    | (k, t0, neg_t1) :: rest -> (
        (* the ends of the events still open at [t0], innermost first *)
        match List.filter (fun (k', t1) -> k' = k && t1 > t0) open_ with
        | (_, t1) :: _ when -.neg_t1 > t1 -> false
        | open_ -> sweep ((k, -.neg_t1) :: open_) rest)
  in
  sweep []
    (List.sort compare
       (List.map
          (fun e ->
            ( (member "pid" e, member "tid" e),
              ns "ts" e,
              -.(ns "ts" e +. ns "dur" e) ))
          evs))

(* Structural validation: used by tests and the `compare --check-trace`
   smoke target.  A valid trace has a traceEvents array in which every
   entry is a complete ("X") event with a string name and numeric
   ts/dur, there is at least one such entry, and the events of each
   (pid, tid) track nest. *)
let validate json =
  let is_num j = match Telemetry.Export.to_float j with Some _ -> None | None -> Some "non-numeric" in
  let check_event j =
    let open Telemetry.Export in
    match j with
    | Obj _ -> (
        match (member "ph" j, member "name" j, member "ts" j, member "dur" j) with
        | Some (Str "X"), Some (Str _), Some ts, Some dur -> (
            match (is_num ts, is_num dur) with
            | None, None -> None
            | _ -> Some "event with non-numeric ts/dur")
        | Some (Str ph), _, _, _ when ph <> "X" ->
            Some (Printf.sprintf "unsupported event phase %S" ph)
        | _ -> Some "event missing ph/name/ts/dur")
    | _ -> Some "traceEvents entry is not an object"
  in
  match Telemetry.Export.member "traceEvents" json with
  | Some (Telemetry.Export.Arr evs) -> (
      match List.filter_map check_event evs with
      | err :: _ -> Error err
      | [] when evs = [] -> Error "trace contains no complete span events"
      | [] when not (nests evs) ->
          Error "events overlap without nesting on one (pid, tid) track"
      | [] -> Ok (List.length evs))
  | Some _ -> Error "traceEvents is not an array"
  | None -> Error "missing traceEvents field"
