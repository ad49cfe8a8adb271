(* Server children: one [Net.Server] per rate step, spawned from this
   executable ([--serve-child]) on an ephemeral TCP port. *)

open Perfbench_core

type child = {
  pid : int;
  out : in_channel;
  port : int;
  setup_s : float;  (** spawn until the server accepts connections *)
}

type spec = { vertices : int; labeled : int; seed : int }

let args spec =
  [| "--serve-child"; string_of_int spec.vertices; string_of_int spec.labeled;
     string_of_int spec.seed |]

let spawn spec =
  let exe = Sys.executable_name in
  let t0 = Clock.now_s () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.append [| exe |] (args spec)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let port =
    match Unix.select [ r ] [] [] 60. with
    | [], _, _ -> None
    | _ -> (
        match input_line out with
        | line -> Scanf.sscanf_opt line "port %d" Fun.id
        | exception End_of_file -> None)
  in
  let setup_s = Clock.now_s () -. t0 in
  match port with
  | Some port -> Ok { pid; out; port; setup_s }
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr out;
      Error "server child did not report a port"

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          let rec scan () =
            match input_line ic with
            | line -> (
                match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
                | Some kb -> float_of_int kb /. 1024.
                | None -> scan ())
            | exception End_of_file -> nan
          in
          scan ())

(* Restart this process's peak resident set count (Linux [clear_refs]),
   so the next {!rss_mb} reading covers only the work that follows. *)
let reset_peak () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let self_rss_mb () = rss_mb (Unix.getpid ())

(* SIGTERM must drain the server and end the child with status 0 within
   [grace_s]; anything else is an error (the child is then killed). *)
let grace_s = 20.

let stop c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Clock.now_s () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ ->
        if Clock.now_s () -. t0 > grace_s then begin
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] c.pid);
          Error "server did not drain within the grace period"
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "server exited with %d" n)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "server ended by signal %d" s)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let r = wait () in
  close_in_noerr c.out;
  r

(* The serving configuration shared by the children and the in-process
   replay: the engine defaults with the 250 ms deadline of [repro serve]. *)
let engine_config seed =
  { Serve.Engine.default_config with Serve.Engine.deadline_ms = 250.; seed }

let problem spec =
  Serve.Soak.problem ~seed:spec.seed ~n_vertices:spec.vertices
    ~n_labeled:spec.labeled

let engine ?(journal = false) spec =
  let journal = if journal then Some (Obs.Journal.create ()) else None in
  Serve.Engine.create ?journal (engine_config spec.seed) (problem spec)

(* Child side: build the engine, listen, report the port, serve until
   SIGTERM drains the server. *)
let child_main spec =
  let engine = engine spec in
  let server =
    Net.Server.create ~engine (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
  in
  Net.Server.install_signal_handlers server;
  Printf.printf "port %d\n%!" (Net.Server.port server);
  Net.Server.run server;
  exit 0
