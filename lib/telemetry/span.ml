type stat = { mutable count : int; mutable total_ns : float; mutable max_ns : float }

let table : (string, stat) Hashtbl.t = Hashtbl.create 32

(* The stat table and the completion listeners are shared across domains
   (a sweep worker may open spans of its own); both are serialised by
   locks.  Contention is irrelevant — spans wrap whole solves, not inner
   loops. *)
let table_lock = Mutex.create ()
let notify_lock = Mutex.create ()

(* Stack of *full paths* of the spans currently open **on this domain**;
   the head is the parent path for the next [with_].  Nesting "solve"
   inside "bench" therefore records under "bench/solve".  Domain-local
   so concurrent spans on different domains do not splice into each
   other's paths. *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let () =
  Registry.on_reset (fun () ->
      Mutex.lock table_lock;
      Hashtbl.reset table;
      Mutex.unlock table_lock;
      (* only the resetting domain's stack can be cleared; worker stacks
         are short-lived and die with their tasks *)
      Domain.DLS.get stack_key := [])

(* The monotonic clock by default.  The source is swappable, and an
   injected one may run backwards, which is why durations are clamped
   to zero below; a test injects exactly that backwards step. *)
let time_source = ref Monotonic.now_ns

let set_time_source = function
  | Some f -> time_source := f
  | None -> time_source := Monotonic.now_ns

let now_ns () = !time_source ()

(* Completion listeners receive (path, start_ns, duration_ns) for every
   recorded span; they power the Chrome-trace capture and the latency
   histograms without either living in this module. *)
let listeners : (string -> float -> float -> unit) list ref = ref []
let on_complete f = listeners := f :: !listeners

let notify path t0 dt =
  Mutex.lock notify_lock;
  List.iter (fun f -> try f path t0 dt with _ -> ()) !listeners;
  Mutex.unlock notify_lock

let record path dt =
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
  Mutex.unlock table_lock

let with_ name f =
  if not !Registry.enabled then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let path =
      match !stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    stack := path :: !stack;
    let t0 = now_ns () in
    let finish () =
      (* guard against a [Registry.reset] that emptied the stack mid-span *)
      (match !stack with [] -> () | _ :: tl -> stack := tl);
      let dt = Float.max 0. (now_ns () -. t0) in
      record path dt;
      notify path t0 dt
    in
    Fun.protect ~finally:finish f
  end

let stat path =
  Mutex.lock table_lock;
  let s =
    match Hashtbl.find_opt table path with
    | Some s -> Some { count = s.count; total_ns = s.total_ns; max_ns = s.max_ns }
    | None -> None
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
