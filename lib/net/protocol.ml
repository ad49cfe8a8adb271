module J = Telemetry.Export
module Engine = Serve.Engine

type request =
  | Query
  | Relabel of { vertex : int; label : float }
  | Stats
  | Metrics

type error =
  | Malformed_json of string
  | Not_an_object
  | Missing_op
  | Unknown_op of string
  | Missing_field of { op : string; field : string }
  | Bad_field of { op : string; field : string; reason : string }

let error_code = function
  | Malformed_json _ -> "malformed_json"
  | Not_an_object -> "not_an_object"
  | Missing_op -> "missing_op"
  | Unknown_op _ -> "unknown_op"
  | Missing_field _ -> "missing_field"
  | Bad_field _ -> "bad_field"

let describe_error = function
  | Malformed_json msg -> Printf.sprintf "payload is not valid JSON: %s" msg
  | Not_an_object -> "payload must be a JSON object"
  | Missing_op -> "payload has no \"op\" string field"
  | Unknown_op op -> Printf.sprintf "unknown op %S" op
  | Missing_field { op; field } ->
      Printf.sprintf "op %S requires field %S" op field
  | Bad_field { op; field; reason } ->
      Printf.sprintf "op %S field %S: %s" op field reason

let op_name = function
  | Query -> "query"
  | Relabel _ -> "relabel"
  | Stats -> "stats"
  | Metrics -> "metrics"

let request_json = function
  | Query -> J.Obj [ ("op", J.Str "query") ]
  | Relabel { vertex; label } ->
      J.Obj
        [ ("op", J.Str "relabel");
          ("vertex", J.Num (float_of_int vertex));
          ("label", J.Num label) ]
  | Stats -> J.Obj [ ("op", J.Str "stats") ]
  | Metrics -> J.Obj [ ("op", J.Str "metrics") ]

let render = J.render
let render_request r = render (request_json r)

(* Numeric field extraction with the hostile cases closed off: absent,
   non-numeric, and non-finite (the parser reads 1e999 as infinity)
   all map to typed errors, never to a value the engine sees. *)
let num_field ~op j name =
  match J.member name j with
  | None -> Error (Missing_field { op; field = name })
  | Some v -> (
      match J.to_float v with
      | None -> Error (Bad_field { op; field = name; reason = "not a number" })
      | Some x when not (Float.is_finite x) ->
          Error (Bad_field { op; field = name; reason = "non-finite" })
      | Some x -> Ok x)

let parse_request text =
  match J.parse text with
  | exception J.Parse_error msg -> Error (Malformed_json msg)
  | J.Obj _ as j -> (
      match J.member "op" j with
      | None -> Error Missing_op
      | Some (J.Str "query") -> Ok Query
      | Some (J.Str "stats") -> Ok Stats
      | Some (J.Str "metrics") -> Ok Metrics
      | Some (J.Str "relabel") -> (
          let op = "relabel" in
          match (num_field ~op j "vertex", num_field ~op j "label") with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok v, Ok label ->
              if not (Float.is_integer v) || Float.abs v > 1e9 then
                Error
                  (Bad_field
                     { op; field = "vertex"; reason = "not a vertex index" })
              else Ok (Relabel { vertex = int_of_float v; label }))
      | Some (J.Str op) -> Error (Unknown_op op)
      | Some _ -> Error Missing_op)
  | _ -> Error Not_an_object

let predictions_digest preds =
  Array.fold_left
    (fun h (v, x) ->
      Prng.Splitmix64.(combine (combine h (Int64.of_int v)))
        (Int64.bits_of_float x))
    0x5eedL preds

let response_body (r : Engine.response) =
  let status = Engine.status_name r.Engine.status in
  let reason =
    match r.Engine.status with
    | Engine.Served -> []
    | Engine.Degraded why | Engine.Shed why -> [ ("reason", J.Str why) ]
  in
  let healthy =
    match r.Engine.certificate with
    | Some c -> J.Bool (Obs.Health.healthy c)
    | None -> J.Null
  in
  let predictions =
    J.Arr
      (Array.to_list r.Engine.predictions
      |> List.map (fun (v, x) ->
             J.Arr [ J.Num (float_of_int v); J.Num x ]))
  in
  J.Obj
    ([ ("ok", J.Bool true);
       ("id", J.Num (float_of_int r.Engine.id));
       ("trace", J.Str (Obs.Trace_ctx.id_hex r.Engine.trace_id));
       ("status", J.Str status) ]
    @ reason
    @ [ ("latency_ms", J.Num r.Engine.latency_ms);
        ("queue_ms", J.Num r.Engine.queue_ms);
        ("cache_hit", J.Bool r.Engine.cache_hit);
        ("healthy", healthy);
        ("predictions", predictions);
        ("pred_digest",
         J.Str
           (Printf.sprintf "%016Lx" (predictions_digest r.Engine.predictions)));
      ])

let stats_body engine =
  let s = Engine.stats engine in
  let tr = Engine.transport engine in
  let i name v = (name, J.Num (float_of_int v)) in
  J.Obj
    [ ("ok", J.Bool true);
      ("stats",
       J.Obj
         [ i "served" s.Engine.served;
           i "degraded" s.Engine.degraded;
           i "shed" s.Engine.shed;
           i "deadline_expired" s.Engine.deadline_expired;
           i "solver_aborts" s.Engine.solver_aborts;
           i "relabels" s.Engine.relabels;
           i "breaker_trips" s.Engine.breaker_trips;
           i "cache_hits" s.Engine.cache_hits;
           i "cache_misses" s.Engine.cache_misses;
           i "max_backlog" s.Engine.max_backlog ]);
      ("transport",
       J.Obj
         [ i "conns_opened" tr.Serve.Transport.conns_opened;
           i "conns_closed" tr.Serve.Transport.conns_closed;
           i "frames_ok" tr.Serve.Transport.frames_ok;
           i "frames_rejected" tr.Serve.Transport.frames_rejected;
           i "client_gone" tr.Serve.Transport.client_gone;
           i "io_deadline_expired" tr.Serve.Transport.io_deadline_expired;
           i "overflow_shed" tr.Serve.Transport.overflow_shed;
           i "drained" tr.Serve.Transport.drained ]);
    ]

let metrics_body engine =
  J.Obj
    [ ("ok", J.Bool true);
      ("metrics", Obs.Expo.to_json (Engine.metrics engine)) ]

let error_body ~code ~detail =
  J.Obj
    [ ("ok", J.Bool false); ("error", J.Str code); ("detail", J.Str detail) ]
