(* Closed-loop load over the daemon's socket: [conns] threads, one
   connection each, each sending its next request only after the
   previous answer arrived. Request [i] of the stream asks for key
   [key_of i]; the threads claim indices from one shared cursor. *)

module P = Serve.Protocol

type sample = {
  idx : int;
  lat : float;  (** Client-observed seconds. *)
  at : float;  (** When the answer arrived, on {!Fault.Clock}. *)
  server : float;  (** The server's own [elapsed] for the request. *)
  source : string;  (** "memory", "disk" or "search"; "" when failed. *)
  ok : bool;
}

(* A stretch of the phase and the host steal (jiffies) during it. *)
type window = { t0 : float; t1 : float; stolen : int }

type result = {
  samples : sample array;
  errors : string list;
  wall : float;
  windows : window array;  (** Consecutive, [window] seconds each. *)
  next : int;  (** The stream index the next phase starts from. *)
}

(* Width of the windows host steal is sampled over. *)
let window = 0.25

(* [check key text] lists what is wrong with a served kernel. *)
let run ~socket ~conns ~first ~limit ~stop_at ~key_of ~check ~parent =
  let cursor = Atomic.make first in
  let out = Array.make conns ([], []) in
  let worker slot =
    let conn = ref None in
    (* The kernel text already verified for each key, per thread. *)
    let verified = Hashtbl.create 512 in
    let samples = ref [] and errors = ref [] in
    let fail i msg =
      errors := Printf.sprintf "request %d: %s" i msg :: !errors;
      (match !conn with Some c -> Serve.Client.close c | None -> ());
      conn := None
    in
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < limit && Fault.Clock.now () < stop_at then begin
        let key = key_of i in
        let canonical = Registry.Key.canonical key in
        let c =
          match !conn with
          | Some c -> Ok c
          | None -> Serve.Client.connect ~socket
        in
        let t0 = Fault.Clock.now () in
        let resp =
          match c with
          | Error e -> Error e
          | Ok c ->
              conn := Some c;
              Spans.span ~parent ~rid:i "client.request" (fun _ ->
                  Serve.Client.request c (P.Synth (key, P.default_params)))
        in
        let at = Fault.Clock.now () in
        let lat = at -. t0 in
        let bad = { idx = i; lat; at; server = 0.; source = ""; ok = false } in
        (match resp with
        | Error e ->
            fail i e;
            samples := bad :: !samples
        | Ok (P.Served ({ P.status = "cached" | "synthesized"; kernel = Some text; _ } as s)) ->
            let problems =
              if s.P.canonical <> canonical then [ "answer is for " ^ s.P.canonical ]
              else if Hashtbl.find_opt verified canonical = Some text then []
              else check key text
            in
            if problems = [] then begin
              Hashtbl.replace verified canonical text;
              samples :=
                {
                  idx = i;
                  lat;
                  at;
                  server = s.P.elapsed;
                  source = Option.value ~default:"" s.P.source;
                  ok = true;
                }
                :: !samples
            end
            else begin
              errors := Printf.sprintf "request %d (%s): %s" i canonical (String.concat "; " problems) :: !errors;
              samples := bad :: !samples
            end
        | Ok r ->
            errors :=
              Printf.sprintf "request %d: %s" i (Registry.Json.to_string (P.response_to_json r))
              :: !errors;
            samples := bad :: !samples);
        loop ()
      end
    in
    loop ();
    (match !conn with Some c -> Serve.Client.close c | None -> ());
    out.(slot) <- (!samples, !errors)
  in
  let t0 = Fault.Clock.now () in
  let threads = List.init conns (fun slot -> Thread.create worker slot) in
  (* Meanwhile this thread reads the host steal every [window] seconds. *)
  let marks = ref [ (t0, Stat.steal_jiffies ()) ] in
  let rec sample k =
    let next = t0 +. (float k *. window) in
    if next < stop_at && Atomic.get cursor < limit then begin
      Fault.Clock.sleep_for (next -. Fault.Clock.now ());
      marks := (Fault.Clock.now (), Stat.steal_jiffies ()) :: !marks;
      sample (k + 1)
    end
  in
  if stop_at < infinity then sample 1;
  List.iter Thread.join threads;
  let wall = Fault.Clock.now () -. t0 in
  let marks = Array.of_list (List.rev ((Fault.Clock.now (), Stat.steal_jiffies ()) :: !marks)) in
  {
    samples = Array.of_list (List.concat_map fst (Array.to_list out));
    errors = List.concat_map snd (Array.to_list out);
    wall;
    windows =
      Array.init
        (Array.length marks - 1)
        (fun k ->
          let (t0, s0), (t1, s1) = (marks.(k), marks.(k + 1)) in
          { t0; t1; stolen = s1 - s0 });
    next = Atomic.get cursor;
  }

let lats ?source r =
  Array.of_list
    (List.filter_map
       (fun s ->
         if s.ok && (source = None || Some s.source = source) then Some s.lat else None)
       (Array.to_list r.samples))

let count r p = Array.fold_left (fun n s -> if p s then n + 1 else n) 0 r.samples

let quiet_windows r = Stat.quiet (Array.map (fun w -> (w.t1 -. w.t0, w.stolen)) r.windows)

(* The index of the window [t] falls in. *)
let window_of r t =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if r.windows.(mid).t0 <= t then go mid hi else go lo mid
  in
  go 0 (Array.length r.windows)

(* The samples whose whole lifetime fell in quiet windows ({!Stat.quiet}):
   the phase as measured while the host let this machine run. Counts and
   path checks always use every sample. *)
let quiet r =
  if Array.length r.windows = 0 then r
  else
    let keep = quiet_windows r in
    let rec all_kept k last = k > last || (keep.(k) && all_kept (k + 1) last) in
    {
      r with
      samples =
        Array.of_list
          (List.filter
             (fun s -> all_kept (window_of r (s.at -. s.lat)) (window_of r s.at))
             (Array.to_list r.samples));
    }

(* Answers per second in the quiet windows of a timed phase: the good
   answers that arrived in one, over their total length. A request in
   flight across a window edge counts where it ended, so no request
   length is favoured. Returns the rate and the answers it counts. *)
let quiet_rate r =
  let keep = quiet_windows r in
  let answers = count r (fun s -> s.ok && keep.(window_of r s.at)) in
  let seconds =
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun k w -> if keep.(k) then w.t1 -. w.t0 else 0.) r.windows)
  in
  (float answers /. seconds, answers)

(* Share of the phase's CPU time the host stole. *)
let steal_share r =
  Stat.steal_share
    ~seconds:(Array.fold_left (fun a w -> a +. (w.t1 -. w.t0)) 0. r.windows)
    (Array.fold_left (fun a w -> a + w.stolen) 0 r.windows)
