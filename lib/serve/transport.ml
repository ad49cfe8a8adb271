(* Transport-level bookkeeping for the framed socket front-end
   (lib/net).  One record lives inside each Engine so the network layer
   and the engine expose a single unified metrics snapshot; lib/net
   increments these through the helpers below.  Plain mutable fields —
   the serving loop is single-threaded — mirrored into the process
   telemetry registry when it is enabled. *)

type t = {
  mutable conns_opened : int;
  mutable conns_closed : int;
  mutable frames_ok : int;
  mutable frames_rejected : int;
  mutable client_gone : int;
  mutable io_deadline_expired : int;
  mutable overflow_shed : int;
  mutable drained : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let create () =
  { conns_opened = 0;
    conns_closed = 0;
    frames_ok = 0;
    frames_rejected = 0;
    client_gone = 0;
    io_deadline_expired = 0;
    overflow_shed = 0;
    drained = 0;
    bytes_in = 0;
    bytes_out = 0 }

let c_conns = Telemetry.Counter.make "serve.transport.conns"
let c_frames_ok = Telemetry.Counter.make "serve.transport.frames_ok"
let c_rejected = Telemetry.Counter.make "serve.transport.frames_rejected"
let c_client_gone = Telemetry.Counter.make "serve.transport.client_gone"
let c_io_deadline = Telemetry.Counter.make "serve.transport.io_deadline_expired"
let c_overflow = Telemetry.Counter.make "serve.transport.overflow_shed"

let conn_opened t =
  t.conns_opened <- t.conns_opened + 1;
  Telemetry.Counter.incr c_conns

let conn_closed t = t.conns_closed <- t.conns_closed + 1

let frame_ok t =
  t.frames_ok <- t.frames_ok + 1;
  Telemetry.Counter.incr c_frames_ok

let frame_rejected t =
  t.frames_rejected <- t.frames_rejected + 1;
  Telemetry.Counter.incr c_rejected

let client_gone t =
  t.client_gone <- t.client_gone + 1;
  Telemetry.Counter.incr c_client_gone

let io_deadline_expired t =
  t.io_deadline_expired <- t.io_deadline_expired + 1;
  Telemetry.Counter.incr c_io_deadline

let overflow_shed t =
  t.overflow_shed <- t.overflow_shed + 1;
  Telemetry.Counter.incr c_overflow

let drained t = t.drained <- t.drained + 1
let bytes_in t n = t.bytes_in <- t.bytes_in + n
let bytes_out t n = t.bytes_out <- t.bytes_out + n

let metrics t =
  let open Obs.Expo in
  let c name help value =
    Counter { name; help; value = float_of_int value }
  in
  [
    c "serve.transport.conns_opened" "connections accepted" t.conns_opened;
    c "serve.transport.conns_closed" "connections closed" t.conns_closed;
    c "serve.transport.frames_ok" "well-formed frames answered" t.frames_ok;
    c "serve.transport.frames_rejected"
      "frames rejected with a typed protocol error" t.frames_rejected;
    c "serve.transport.client_gone"
      "peers that vanished mid-exchange (EPIPE/ECONNRESET/disconnect)"
      t.client_gone;
    c "serve.transport.io_deadline_expired"
      "reads or writes that outlived the per-frame I/O deadline"
      t.io_deadline_expired;
    c "serve.transport.overflow_shed"
      "frames shed because the connection's output buffer was full"
      t.overflow_shed;
    c "serve.transport.drained" "graceful drains completed" t.drained;
    c "serve.transport.bytes_in" "payload bytes received" t.bytes_in;
    c "serve.transport.bytes_out" "frame bytes queued for send" t.bytes_out;
  ]
