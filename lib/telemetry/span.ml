type value = Bool of bool | Int of int | Float of float | Str of string

(* ---------------- traces ---------------- *)

type node = {
  id : int;  (* allocation index; causal order *)
  parent : int;  (* -1 for the root *)
  name : string;
  start_ms : float;
  mutable dur_ms : float;  (* nan while the node is open *)
  mutable fields : (string * value) list;
}

type trace = {
  trace_id : int64;
  now : unit -> float;
  root : node;
  mutable nodes_rev : node list;  (* newest first *)
  mutable open_ : node list;  (* innermost open node first *)
}

let trace ~now ~id ?(fields = []) name =
  let root =
    { id = 0; parent = -1; name; start_ms = now (); dur_ms = Float.nan; fields }
  in
  { trace_id = id; now; root; nodes_rev = [ root ]; open_ = [ root ] }

let trace_id tr = tr.trace_id
let nodes tr = List.rev tr.nodes_rev

(* a new node under the innermost open one *)
let add_node tr fields name =
  let s =
    { id = (List.hd tr.nodes_rev).id + 1;
      parent = (match tr.open_ with [] -> -1 | s :: _ -> s.id);
      name; start_ms = tr.now (); dur_ms = Float.nan; fields }
  in
  tr.nodes_rev <- s :: tr.nodes_rev;
  s

(* Close [s] and every node opened inside it that is still open, so the
   tree is always total.  Idempotent. *)
let close_node tr s =
  let rec pop = function
    | [] -> []
    | top :: rest ->
        if Float.is_nan top.dur_ms then
          top.dur_ms <- Float.max 0. (tr.now () -. top.start_ms);
        if top == s then rest else pop rest
  in
  if Float.is_nan s.dur_ms then tr.open_ <- pop tr.open_

let close ?(fields = []) tr =
  if Float.is_nan tr.root.dur_ms then begin
    tr.root.fields <- tr.root.fields @ fields;
    close_node tr tr.root
  end

(* Per domain: the trace installed on it, and the stack of *full paths*
   of the aggregate spans open on it (the head is the parent path of the
   next [with_], so "solve" inside "bench" records under "bench/solve").
   Domain-local so spans on different domains splice neither into each
   other's paths nor into each other's traces. *)
type local = { mutable trace : trace option; mutable paths : string list }

let local_key = Domain.DLS.new_key (fun () -> { trace = None; paths = [] })

let with_trace tr f =
  let l = Domain.DLS.get local_key in
  let saved = l.trace in
  l.trace <- Some tr;
  Fun.protect ~finally:(fun () -> l.trace <- saved) f

(* ---------------- the path aggregate ---------------- *)

type stat = { mutable count : int; mutable total_ns : float; mutable max_ns : float }

let table : (string, stat) Hashtbl.t = Hashtbl.create 32

(* The stat table and the completion listeners are shared across domains
   (a sweep worker may open spans of its own); both are serialised by
   locks.  Contention is irrelevant — spans wrap whole solves, not inner
   loops. *)
let table_lock = Mutex.create ()
let notify_lock = Mutex.create ()

let () =
  Registry.on_reset (fun () ->
      Mutex.lock table_lock;
      Hashtbl.reset table;
      Mutex.unlock table_lock;
      (* only the resetting domain's stack can be cleared; worker stacks
         are short-lived and die with their tasks *)
      (Domain.DLS.get local_key).paths <- [])

(* The monotonic clock by default.  The source is swappable, and an
   injected one may run backwards, which is why durations are clamped
   to zero below; a test injects exactly that backwards step. *)
let time_source = ref Monotonic.now_ns

let set_time_source = function
  | Some f -> time_source := f
  | None -> time_source := Monotonic.now_ns

(* Completion listeners receive (path, start_ns, duration_ns) for every
   recorded span; they power the Chrome-trace capture and the latency
   histograms without either living in this module. *)
let listeners : (string -> float -> float -> unit) list ref = ref []
let on_complete f = listeners := f :: !listeners

let record path t0 dt =
  Mutex.lock table_lock;
  let s =
    match Hashtbl.find_opt table path with
    | Some s -> s
    | None ->
        let s = { count = 0; total_ns = 0.; max_ns = 0. } in
        Hashtbl.add table path s;
        s
  in
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns +. dt;
  if dt > s.max_ns then s.max_ns <- dt;
  Mutex.unlock table_lock;
  Mutex.lock notify_lock;
  List.iter (fun f -> try f path t0 dt with _ -> ()) !listeners;
  Mutex.unlock notify_lock

(* ---------------- recording ---------------- *)

(* the trace sink: a node under the innermost open one, closed on exit *)
let in_trace tr fields name f =
  let s = add_node tr fields name in
  tr.open_ <- s :: tr.open_;
  Fun.protect ~finally:(fun () -> close_node tr s) f

(* the aggregate sink and the listeners, timed on [time_source] *)
let timed l name f =
  let path =
    match l.paths with [] -> name | parent :: _ -> parent ^ "/" ^ name
  in
  l.paths <- path :: l.paths;
  let t0 = !time_source () in
  let finish () =
    (* guard against a [Registry.reset] that emptied the stack mid-span *)
    (match l.paths with [] -> () | _ :: tl -> l.paths <- tl);
    record path t0 (Float.max 0. (!time_source () -. t0))
  in
  Fun.protect ~finally:finish f

let with_ ?(fields = []) name f =
  let l = Domain.DLS.get local_key in
  let f = if !Registry.enabled then fun () -> timed l name f else f in
  match l.trace with None -> f () | Some tr -> in_trace tr fields name f

let event ?(fields = []) name =
  match (Domain.DLS.get local_key).trace with
  | Some tr -> (add_node tr fields name).dur_ms <- 0.
  | None -> ()

let annotate fields =
  match (Domain.DLS.get local_key).trace with
  | Some { open_ = s :: _; _ } -> s.fields <- s.fields @ fields
  | Some { open_ = []; _ } | None -> ()

(* ---------------- reading the aggregate ---------------- *)

let stat path =
  Mutex.lock table_lock;
  let s =
    Option.map
      (fun s -> { count = s.count; total_ns = s.total_ns; max_ns = s.max_ns })
      (Hashtbl.find_opt table path)
  in
  Mutex.unlock table_lock;
  s

let count path = match stat path with Some s -> s.count | None -> 0
let total_ns path = match stat path with Some s -> s.total_ns | None -> 0.
let total_ms path = total_ns path /. 1e6

let snapshot () =
  Mutex.lock table_lock;
  let all =
    Hashtbl.fold
      (fun path s acc ->
        (path, { count = s.count; total_ns = s.total_ns; max_ns = s.max_ns })
        :: acc)
      table []
  in
  Mutex.unlock table_lock;
  List.sort compare all
