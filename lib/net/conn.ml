module Engine = Serve.Engine
module Clock = Serve.Clock
module Transport = Serve.Transport
module Span = Telemetry.Span
module J = Telemetry.Export

type config = {
  io_deadline_ms : float;
  max_payload : int;
  max_buffered : int;
}

let default_config =
  { io_deadline_ms = 2_000.;
    max_payload = Frame.default_max_payload;
    max_buffered = 1 lsl 18 }

type state = Open | Closing | Closed

type t = {
  id : int;
  config : config;
  engine : Engine.t;
  clock : Clock.t;
  tr : Transport.t;
  fresh_id : unit -> int;
  decoder : Frame.t;
  out : Buffer.t;
  mutable out_off : int;
  ctx : Span.trace;
  mutable state : state;
  mutable frame_start_ms : float option;
      (* arrival anchor: when the current in-flight frame's first byte
         landed; doubles as the read-side I/O deadline anchor *)
  mutable write_start_ms : float option;
      (* when the oldest still-unread response byte was queued *)
  mutable frames : int;
  mutable rejected : int;
  mutable responses : int;
  mutable io_expired : bool;
  mutable aborted : bool;
  mutable max_buffered_seen : int;
  mutable close_reason : string;
}

let create ?(config = default_config) ~engine ~fresh_id ~id () =
  let clock = Engine.clock engine in
  let tr = Engine.transport engine in
  let seed = (Engine.config engine).Engine.seed in
  (* distinct stream from request traces: connection ids and request
     ids share an integer space but must not share trace ids *)
  let ctx =
    Span.trace
      ~now:(fun () -> Clock.now_ms clock)
      ~id:(Obs.Trace_ctx.derive_id ~seed:(seed lxor 0x636f6e6e) ~request:id)
      ~fields:[ ("conn", Span.Int id) ]
      "conn"
  in
  Transport.conn_opened tr;
  { id;
    config;
    engine;
    clock;
    tr;
    fresh_id;
    decoder = Frame.create ~max_payload:config.max_payload ();
    out = Buffer.create 1024;
    out_off = 0;
    ctx;
    state = Open;
    frame_start_ms = None;
    write_start_ms = None;
    frames = 0;
    rejected = 0;
    responses = 0;
    io_expired = false;
    aborted = false;
    max_buffered_seen = 0;
    close_reason = "" }

let pending_len t = Buffer.length t.out - t.out_off

let pending t =
  let len = pending_len t in
  if len = 0 then "" else Buffer.sub t.out t.out_off len

let consume t n =
  let n = Stdlib.max 0 (Stdlib.min n (pending_len t)) in
  t.out_off <- t.out_off + n;
  if t.out_off = Buffer.length t.out then begin
    Buffer.clear t.out;
    t.out_off <- 0;
    t.write_start_ms <- None
  end

let enqueue t payload =
  let bytes = Frame.encode payload in
  Buffer.add_string t.out bytes;
  t.responses <- t.responses + 1;
  Transport.bytes_out t.tr (String.length bytes);
  if t.write_start_ms = None then
    t.write_start_ms <- Some (Clock.now_ms t.clock);
  let p = pending_len t in
  if p > t.max_buffered_seen then t.max_buffered_seen <- p

let finalize t reason =
  if t.state <> Closed then begin
    t.state <- Closed;
    t.close_reason <- reason;
    Transport.conn_closed t.tr;
    Span.close t.ctx
      ~fields:
        [ ("frames", Span.Int t.frames);
          ("rejected", Span.Int t.rejected);
          ("responses", Span.Int t.responses);
          ("reason", Span.Str reason) ]
  end

let shutdown t ~reason = finalize t reason

(* Every entry point that can record runs under the connection's trace,
   so its spans and events (and a request trace nested inside a frame)
   land there. *)
let abort t ~reason =
  Span.with_trace t.ctx @@ fun () ->
  if t.state <> Closed then begin
    t.aborted <- true;
    Transport.client_gone t.tr;
    Span.event "conn.client_gone"
      ~fields:[ ("undelivered", Span.Int (pending_len t)) ];
    finalize t reason
  end

let reject t ~code ~detail ~fatal =
  t.rejected <- t.rejected + 1;
  Transport.frame_rejected t.tr;
  Span.event "frame.rejected" ~fields:[ ("code", Span.Str code) ];
  enqueue t (J.render (Protocol.error_body ~code ~detail));
  if fatal then begin
    (* a framing fault loses the frame boundary: answer, flush, close *)
    t.frame_start_ms <- None;
    t.state <- Closing
  end

let handle_payload t ~arrival payload =
  if pending_len t > t.config.max_buffered then begin
    (* the peer is not reading its answers: shed instead of buffering
       without bound, with an explicit status, then hang up *)
    Transport.overflow_shed t.tr;
    reject t ~code:"overloaded"
      ~detail:
        (Printf.sprintf
           "%d unread response byte(s) exceed the %d-byte connection buffer"
           (pending_len t) t.config.max_buffered)
      ~fatal:true
  end
  else
    match Protocol.parse_request payload with
    | Error e ->
        (* the framing is intact, so JSON-level faults are recoverable:
           answer the error and keep the connection open *)
        reject t ~code:(Protocol.error_code e)
          ~detail:(Protocol.describe_error e) ~fatal:false
    | Ok req ->
        t.frames <- t.frames + 1;
        Transport.frame_ok t.tr;
        Span.with_ "frame" ~fields:[ ("op", Span.Str (Protocol.op_name req)) ]
          (fun () ->
            match req with
            | Protocol.Stats ->
                enqueue t (J.render (Protocol.stats_body t.engine))
            | Protocol.Metrics ->
                enqueue t (J.render (Protocol.metrics_body t.engine))
            | Protocol.Query | Protocol.Relabel _ ->
                let kind =
                  match req with
                  | Protocol.Query -> Engine.Query
                  | Protocol.Relabel { vertex; label } ->
                      Engine.Relabel { vertex; label }
                  | Protocol.Stats | Protocol.Metrics -> assert false
                in
                let r =
                  Engine.handle t.engine
                    { Engine.id = t.fresh_id ();
                      arrival_ms = arrival;
                      kind;
                      faults = [] }
                in
                (* the request's own trace is uninstalled again, so this
                   lands on the frame span *)
                Span.annotate
                  [ ("status", Span.Str (Engine.status_name r.Engine.status)) ];
                enqueue t (J.render (Protocol.response_body r)))

let on_bytes t data =
  Span.with_trace t.ctx @@ fun () ->
  if t.state = Open && String.length data > 0 then begin
    Transport.bytes_in t.tr (String.length data);
    if t.frame_start_ms = None then
      t.frame_start_ms <- Some (Clock.now_ms t.clock);
    let events = Frame.feed t.decoder data in
    List.iter
      (fun ev ->
        match ev with
        | Ok payload ->
            let arrival =
              match t.frame_start_ms with
              | Some a -> a
              | None -> Clock.now_ms t.clock
            in
            t.frame_start_ms <- None;
            if t.state = Open then handle_payload t ~arrival payload
        | Error e ->
            reject t ~code:(Frame.error_code e) ~detail:(Frame.describe e)
              ~fatal:true)
      events;
    (* re-anchor: a partial frame trailing this chunk starts its I/O
       deadline now; an idle decoder carries no anchor at all *)
    if t.state = Open then
      if Frame.in_progress t.decoder then begin
        if t.frame_start_ms = None then
          t.frame_start_ms <- Some (Clock.now_ms t.clock)
      end
      else t.frame_start_ms <- None
  end

let on_eof t =
  Span.with_trace t.ctx @@ fun () ->
  if t.state = Open then begin
    (match Frame.finish t.decoder with
    | Some e ->
        reject t ~code:(Frame.error_code e) ~detail:(Frame.describe e)
          ~fatal:true
    | None -> ());
    t.frame_start_ms <- None;
    if t.state = Open then t.state <- Closing
  end

let tick t =
  Span.with_trace t.ctx @@ fun () ->
  if t.state = Open || t.state = Closing then begin
    let now = Clock.now_ms t.clock in
    (match t.frame_start_ms with
    | Some t0 when t.state = Open && now -. t0 > t.config.io_deadline_ms ->
        t.io_expired <- true;
        Transport.io_deadline_expired t.tr;
        Span.event "io.deadline_expired" ~fields:[ ("phase", Span.Str "read") ];
        reject t ~code:"io_deadline"
          ~detail:
            (Printf.sprintf "frame not completed within %.0f ms"
               t.config.io_deadline_ms)
          ~fatal:true
    | _ -> ());
    match t.write_start_ms with
    | Some t0 when now -. t0 > t.config.io_deadline_ms ->
        (* the peer has not read a queued response for a whole budget:
           it is as good as gone — do not let it pin the buffer *)
        t.io_expired <- true;
        Transport.io_deadline_expired t.tr;
        Span.event "io.deadline_expired" ~fields:[ ("phase", Span.Str "write") ];
        finalize t "write deadline expired"
    | _ -> ()
  end

let id t = t.id
let want_close t = t.state = Closing && pending_len t = 0
let is_closed t = t.state = Closed
let frames t = t.frames
let rejected t = t.rejected
let responses t = t.responses
let io_expired t = t.io_expired
let aborted t = t.aborted
let max_buffered_seen t = t.max_buffered_seen
let close_reason t = t.close_reason
let ctx t = t.ctx
