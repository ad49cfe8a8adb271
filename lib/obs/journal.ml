(* Per-request span journal.

   One JSONL line per finished request: the trace id, the response
   disposition (status / latency / queue wait / cache hit), and the full
   span tree of its trace ({!Telemetry.Span.trace}).  The journal keeps
   a running SplitMix64 digest over the exact line bytes — two runs that
   journal identical lines in identical order have equal digests, which
   is how soak replay proves the observability pipeline itself is
   deterministic — and a running aggregate (status counts + a latency
   histogram built with the same {!Histogram} implementation the engine
   uses) so journal figures reconcile exactly with [Engine.stats].

   Recording is mutex-protected: multiple domains may append to one
   journal concurrently and every line stays intact (the hammer test
   in test_obs_pipeline exercises this). *)

type t = {
  mutex : Mutex.t;
  mutable lines_rev : string list;
  mutable n : int;
  mutable digest : int64;
  mutable served : int;
  mutable degraded : int;
  mutable shed : int;
  latency : Histogram.t;
}

let create () =
  {
    mutex = Mutex.create ();
    lines_rev = [];
    n = 0;
    digest = 0x0b5e9a1ceL;
    served = 0;
    degraded = 0;
    shed = 0;
    latency = Histogram.create ();
  }

let digest_line h line =
  let h = ref (Prng.Splitmix64.mix (Int64.add h 0x9e3779b97f4a7c15L)) in
  String.iter
    (fun c ->
      h :=
        Prng.Splitmix64.mix
          (Int64.logxor
             (Int64.mul !h 0x100000001b3L)
             (Int64.of_int (Char.code c))))
    line;
  !h

let line_json ~request ~status ~reason ~latency_ms ~queue_ms ~cache_hit tr =
  let open Telemetry.Export in
  let base =
    [
      ("trace", Str (Trace_ctx.id_hex (Telemetry.Span.trace_id tr)));
      ("request", Num (float_of_int request));
      ("status", Str status);
    ]
  in
  let reason_field =
    match reason with None -> [] | Some r -> [ ("reason", Str r) ]
  in
  let rest =
    [
      ("latency_ms", Num latency_ms);
      ("queue_ms", Num queue_ms);
      ("cache_hit", Bool cache_hit);
      ( "spans",
        Arr (List.map Trace_ctx.span_json (Telemetry.Span.nodes tr)) );
    ]
  in
  Obj (base @ reason_field @ rest)

let record t ~request ~status ?reason ~latency_ms ~queue_ms ~cache_hit tr =
  let line =
    Telemetry.Export.render
      (line_json ~request ~status ~reason ~latency_ms ~queue_ms ~cache_hit tr)
  in
  Mutex.lock t.mutex;
  t.lines_rev <- line :: t.lines_rev;
  t.n <- t.n + 1;
  t.digest <- digest_line t.digest line;
  (match status with
  | "served" -> t.served <- t.served + 1
  | "degraded" -> t.degraded <- t.degraded + 1
  | "shed" -> t.shed <- t.shed + 1
  | _ -> ());
  Histogram.add t.latency latency_ms;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = t.n in
  Mutex.unlock t.mutex;
  n

let digest t =
  Mutex.lock t.mutex;
  let d = t.digest in
  Mutex.unlock t.mutex;
  d

let lines t =
  Mutex.lock t.mutex;
  let ls = List.rev t.lines_rev in
  Mutex.unlock t.mutex;
  ls

type aggregate = {
  requests : int;
  served : int;
  degraded : int;
  shed : int;
  latency_p50 : float;
  latency_p99 : float;
  latency_max : float;
}

let aggregate t =
  Mutex.lock t.mutex;
  let a =
    {
      requests = t.n;
      served = t.served;
      degraded = t.degraded;
      shed = t.shed;
      latency_p50 = Histogram.p50 t.latency;
      latency_p99 = Histogram.p99 t.latency;
      latency_max = Histogram.max_value t.latency;
    }
  in
  Mutex.unlock t.mutex;
  a

let to_text t = String.concat "" (List.map (fun l -> l ^ "\n") (lines t))

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_text t))

(* ---------------- schema validation ---------------- *)

let statuses = [ "served"; "degraded"; "shed" ]

let validate_line line =
  let open Telemetry.Export in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let field name conv j =
    match Option.bind (member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped field %S" name)
  in
  match parse line with
  | exception Parse_error msg -> Error ("not JSON: " ^ msg)
  | j ->
      let* trace = field "trace" to_str j in
      let* _request = field "request" to_int j in
      let* status = field "status" to_str j in
      let* latency = field "latency_ms" to_float j in
      let* queue = field "queue_ms" to_float j in
      let* _cache_hit = field "cache_hit" to_bool j in
      let* () =
        if String.length trace = 16 then Ok ()
        else Error "trace id must be 16 hex digits"
      in
      let* () =
        if List.mem status statuses then Ok ()
        else Error (Printf.sprintf "unknown status %S" status)
      in
      let* () =
        if latency >= 0. && queue >= 0. then Ok ()
        else Error "negative latency_ms or queue_ms"
      in
      let* spans =
        match member "spans" j with
        | Some (Arr spans) -> Ok spans
        | _ -> Error "missing or mistyped field \"spans\""
      in
      let* () =
        if spans <> [] then Ok () else Error "empty span list"
      in
      let check_span idx s =
        let* id = field "id" to_int s in
        let* parent = field "parent" to_int s in
        let* name = field "name" to_str s in
        let* dur = field "dur_ms" to_float s in
        let* _start = field "start_ms" to_float s in
        let* () =
          if id = idx then Ok ()
          else Error (Printf.sprintf "span %d: id %d out of order" idx id)
        in
        let* () =
          if (idx = 0 && parent = -1) || (idx > 0 && parent >= -1 && parent < id)
          then Ok ()
          else
            Error
              (Printf.sprintf "span %d: acausal parent %d" idx parent)
        in
        let* () =
          if name <> "" then Ok ()
          else Error (Printf.sprintf "span %d: empty name" idx)
        in
        if dur >= 0. then Ok ()
        else Error (Printf.sprintf "span %d: negative dur_ms" idx)
      in
      let rec walk idx = function
        | [] -> Ok ()
        | s :: rest ->
            let* () = check_span idx s in
            walk (idx + 1) rest
      in
      walk 0 spans

let validate_text text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno count = function
    | [] -> Ok count
    | [ "" ] -> Ok count  (* trailing newline *)
    | line :: rest -> (
        match validate_line line with
        | Ok () -> go (lineno + 1) (count + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 0 lines

let validate_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate_text text

let aggregate_of_text text =
  let agg = create () in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then
           let open Telemetry.Export in
           match parse line with
           | exception Parse_error _ -> ()
           | j ->
               let status =
                 Option.value ~default:""
                   (Option.bind (member "status" j) to_str)
               in
               let latency =
                 Option.value ~default:0.
                   (Option.bind (member "latency_ms" j) to_float)
               in
               Mutex.lock agg.mutex;
               agg.n <- agg.n + 1;
               (match status with
               | "served" -> agg.served <- agg.served + 1
               | "degraded" -> agg.degraded <- agg.degraded + 1
               | "shed" -> agg.shed <- agg.shed + 1
               | _ -> ());
               Histogram.add agg.latency latency;
               Mutex.unlock agg.mutex);
  aggregate agg
