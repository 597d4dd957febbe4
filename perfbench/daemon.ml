(* A [synth serve] process on a real Unix socket, driven from outside. *)

module Json = Registry.Json

let exe = "_build/default/bin/synth.exe"

type t = { pid : int; socket : string; out : in_channel }

(* Daemons not yet reaped; killed on exit if a run dies half-way. *)
let live : int list ref = ref []

let reap pid = live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let stats t =
  match Serve.Client.roundtrip ~socket:t.socket Serve.Protocol.Stats with
  | Ok (Serve.Protocol.Snapshot j) -> j
  | Ok _ -> failwith "stats: unexpected response"
  | Error e -> failwith ("stats: " ^ e)

(* Start a daemon over [root] and wait for its first answered [stats].
   Returns the daemon and the seconds from spawn to that answer. *)
let spawn ~root ~socket ~capacity =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (root ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = Fault.Clock.now () in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; socket; "--cache-dir"; root; "--capacity";
        string_of_int capacity; "--workers"; "2";
      |]
      Unix.stdin wr log
  in
  live := pid :: !live;
  Unix.close wr;
  Unix.close log;
  let t = { pid; socket; out = Unix.in_channel_of_descr rd } in
  (match input_line t.out with
  | _ready -> ()
  | exception End_of_file ->
      let log = In_channel.with_open_bin (root ^ ".log") In_channel.input_all in
      failwith ("the daemon exited before listening:\n" ^ log));
  ignore (stats t);
  (t, Fault.Clock.now () -. t0)

let peak_rss_mb t = Stat.peak_rss_mb (string_of_int t.pid)

let shutdown t =
  (match Serve.Client.roundtrip ~socket:t.socket Serve.Protocol.Shutdown with
  | Ok Serve.Protocol.Goodbye -> ()
  | Ok _ | Error _ -> ( try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = Fault.Clock.now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Fault.Clock.now () < deadline ->
        Fault.Clock.sleep_for 0.005;
        wait ()
    | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
  in
  wait ();
  reap t.pid;
  close_in_noerr t.out

(* [stats] field at a dotted path, e.g. ["serve"; "evictions"]. *)
let field j path =
  let v =
    List.fold_left
      (fun j k -> match Json.member k j with Some v -> v | None -> failwith ("stats lacks " ^ k))
      j path
  in
  match Json.to_int v with Ok i -> i | Error e -> failwith e

let delta before after path = field after path - field before path
