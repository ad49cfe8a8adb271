(* Lazily-spawned domain pool with deterministic chunked scheduling.

   One job runs at a time (concurrent submissions serialise on
   [submit]); chunks are claimed from an atomic cursor by the caller and
   every worker, so the assignment of chunks to domains is dynamic while
   the chunk *layout* is a pure function of (n, grain) — which is what
   the bit-identity contract rests on.  Workers park on [wake] between
   jobs and are joined on [shutdown]. *)

let c_tasks = Telemetry.Counter.make "parallel.pool.tasks"
let c_chunks = Telemetry.Counter.make "parallel.pool.chunks"
let c_busy_ns = Telemetry.Counter.make "parallel.pool.busy_ns"
let c_inline = Telemetry.Counter.make "parallel.pool.inline_tasks"

type job = {
  chunk_count : int;
  grain : int;
  length : int;
  body : int -> int -> unit;
  next : int Atomic.t;      (* next chunk index to claim *)
  completed : int Atomic.t; (* chunks fully executed *)
  failed : exn option Atomic.t;
}

type t = {
  domains : int;
  mutex : Mutex.t; (* guards job / generation / stop / workers *)
  wake : Condition.t; (* workers: a new generation is available *)
  finished : Condition.t; (* caller: all chunks of the job completed *)
  submit : Mutex.t; (* serialises concurrent parallel jobs *)
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable spawned : bool;
}

(* True while the current domain is executing a pool chunk (or a
   [sequential] region): parallel calls made in that state run inline. *)
let inline_mode : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_grain n = Stdlib.max 1 ((n + 63) / 64)

let default_domain_count () =
  match Sys.getenv_opt "GSSL_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Stdlib.min d 64
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?domains () =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Pool.create: need domains >= 1";
        d
    | None -> default_domain_count ()
  in
  {
    domains;
    mutex = Mutex.create ();
    wake = Condition.create ();
    finished = Condition.create ();
    submit = Mutex.create ();
    job = None;
    generation = 0;
    stop = false;
    workers = [];
    spawned = false;
  }

let size pool = pool.domains

let now_ns () = int_of_float (Telemetry.Monotonic.now_ns ())

let run_chunk pool job c =
  let lo = c * job.grain in
  let hi = Stdlib.min job.length (lo + job.grain) in
  let was = Domain.DLS.get inline_mode in
  Domain.DLS.set inline_mode true;
  let timed = Telemetry.Registry.is_enabled () in
  let t0 = if timed then now_ns () else 0 in
  (try job.body lo hi
   with e -> ignore (Atomic.compare_and_set job.failed None (Some e)));
  if timed then Telemetry.Counter.add c_busy_ns (now_ns () - t0);
  Domain.DLS.set inline_mode was;
  let done_count = 1 + Atomic.fetch_and_add job.completed 1 in
  if done_count = job.chunk_count then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.finished;
    Mutex.unlock pool.mutex
  end

let drain pool job =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add job.next 1 in
    if c >= job.chunk_count then continue := false else run_chunk pool job c
  done

let rec worker_loop pool last_gen =
  Mutex.lock pool.mutex;
  while (not pool.stop) && pool.generation = last_gen do
    Condition.wait pool.wake pool.mutex
  done;
  if pool.stop then Mutex.unlock pool.mutex
  else begin
    let gen = pool.generation in
    let job = pool.job in
    Mutex.unlock pool.mutex;
    (* the job may already be gone if it completed before we woke up *)
    (match job with Some j -> drain pool j | None -> ());
    worker_loop pool gen
  end

let ensure_spawned pool =
  if not pool.spawned then begin
    Mutex.lock pool.mutex;
    if (not pool.spawned) && not pool.stop then begin
      pool.workers <-
        List.init (pool.domains - 1) (fun _ ->
            Domain.spawn (fun () -> worker_loop pool 0));
      pool.spawned <- true
    end;
    Mutex.unlock pool.mutex
  end

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.wake;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let parallel_for ?grain pool n body =
  if n > 0 then begin
    let grain =
      match grain with
      | Some g when g >= 1 -> g
      | Some _ -> invalid_arg "Pool.parallel_for: need grain >= 1"
      | None -> default_grain n
    in
    let chunk_count = (n + grain - 1) / grain in
    if
      pool.domains = 1 || chunk_count = 1 || pool.stop
      || Domain.DLS.get inline_mode
    then begin
      Telemetry.Counter.incr c_inline;
      body 0 n
    end
    else
      (* the span makes pool jobs visible in --profile quantiles and
         Chrome traces alongside the parallel.pool.* counters *)
      Telemetry.Span.with_ "parallel.pool.job" @@ fun () ->
      ensure_spawned pool;
      Mutex.lock pool.submit;
      let job =
        {
          chunk_count;
          grain;
          length = n;
          body;
          next = Atomic.make 0;
          completed = Atomic.make 0;
          failed = Atomic.make None;
        }
      in
      Telemetry.Counter.incr c_tasks;
      Telemetry.Counter.add c_chunks chunk_count;
      Mutex.lock pool.mutex;
      pool.job <- Some job;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.mutex;
      drain pool job;
      Mutex.lock pool.mutex;
      while Atomic.get job.completed < job.chunk_count do
        Condition.wait pool.finished pool.mutex
      done;
      pool.job <- None;
      Mutex.unlock pool.mutex;
      Mutex.unlock pool.submit;
      match Atomic.get job.failed with Some e -> raise e | None -> ()
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let sequential f =
  let was = Domain.DLS.get inline_mode in
  Domain.DLS.set inline_mode true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inline_mode was) f

(* ------------------------------------------------------------------ *)
(* default pool                                                        *)
(* ------------------------------------------------------------------ *)

let default_lock = Mutex.create ()
let default_pool : t option ref = ref None

let get_default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  pool

let set_default_domains domains =
  if domains < 1 then invalid_arg "Pool.set_default_domains: need domains >= 1";
  Mutex.lock default_lock;
  let old = !default_pool in
  default_pool := Some (create ~domains ());
  Mutex.unlock default_lock;
  match old with Some p -> shutdown p | None -> ()

let with_default_domains domains f =
  if domains < 1 then
    invalid_arg "Pool.with_default_domains: need domains >= 1";
  Mutex.lock default_lock;
  let saved = !default_pool in
  let temp = create ~domains () in
  default_pool := Some temp;
  Mutex.unlock default_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock default_lock;
      default_pool := saved;
      Mutex.unlock default_lock;
      shutdown temp)
    f

let run ?grain n body = parallel_for ?grain (get_default ()) n body
