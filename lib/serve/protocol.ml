(* Newline-delimited JSON protocol for the synthesis daemon.

   One request object per line, one response object per line, over a
   Unix domain socket. Both ends build on Jsonv — the same
   module every JSON producer in the repository renders with — so the
   daemon introduces no second JSON dialect. *)

module Key = Registry.Key

type synth_params = {
  timeout : float option;
  budget : int option;
  retries : int;
  backoff : float;
  optimize : bool;
  deadline : float option;
      (* Absolute, on the fault clock: the instant after which the client
         no longer wants the answer. The server sheds the request if it
         expires while queued instead of burning a worker on it. *)
}

let default_params =
  {
    timeout = None;
    budget = None;
    retries = 1;
    backoff = 0.05;
    optimize = false;
    deadline = None;
  }

type request =
  | Lookup of Key.t
  | Synth of Key.t * synth_params
  | Batch of Key.t list * synth_params
  | Stats
  | Shutdown

type served = {
  status : string;
  source : string option;
  canonical : string;
  kernel : string option;
  length : int option;
  degraded : bool;
  rung : int;
  attempts : int;
  elapsed : float;
  coalesced : bool;
  error : string option;
  retry_after : float option;
      (* Shed responses ("overloaded" / "circuit_open") carry a hint for
         how long the client should back off before retrying. *)
}

type response =
  | Served of served
  | Jobs of served list
  | Snapshot of Jsonv.t
  | Goodbye
  | Refused of string
  | Overloaded of float
      (* Connection-level shed: the server is at its connection budget
         (or draining) and refuses the whole connection — typed, never a
         silent close. Carries the retry_after hint in seconds. *)

(* ---------- job results ---------- *)

module Scheduler = Registry.Scheduler

let job_error (r : Scheduler.job_result) =
  match r.Scheduler.status with
  | Scheduler.Failed msg -> Some msg
  | Scheduler.Exhausted { live; budget } ->
      Some
        (match budget with
        | Some b -> Printf.sprintf "state budget exhausted (%d live, budget %d)" live b
        | None -> Printf.sprintf "state budget exhausted (%d live)" live)
  | Scheduler.Timed_out -> Some "every attempt hit the deadline"
  | Scheduler.Crashed -> Some "worker died mid-request"
  | Scheduler.Cached | Scheduler.Synthesized -> None

let of_job ?(render = Isa.Program.to_string) (r : Scheduler.job_result) =
  {
    status = Scheduler.status_string r.Scheduler.status;
    source =
      (match r.Scheduler.status with
      | Scheduler.Synthesized -> Some "search"
      | _ -> None);
    canonical = Key.canonical r.Scheduler.key;
    kernel = Option.map (render (Key.config r.Scheduler.key)) r.Scheduler.program;
    length = r.Scheduler.length;
    degraded = r.Scheduler.degraded;
    rung = r.Scheduler.rung;
    attempts = r.Scheduler.attempts;
    elapsed = r.Scheduler.elapsed;
    coalesced = false;
    error = job_error r;
    retry_after = None;
  }

(* ---------- requests ---------- *)

let params_fields p =
  List.concat
    [
      (match p.timeout with Some s -> [ ("timeout", Jsonv.Float s) ] | None -> []);
      (match p.budget with Some b -> [ ("budget", Jsonv.Int b) ] | None -> []);
      [ ("retries", Jsonv.Int p.retries) ];
      [ ("backoff", Jsonv.Float p.backoff) ];
      [ ("optimize", Jsonv.Bool p.optimize) ];
      (match p.deadline with
      | Some d -> [ ("deadline", Jsonv.Float d) ]
      | None -> []);
    ]

let request_to_json = function
  | Lookup key -> Jsonv.Obj [ ("op", Jsonv.Str "lookup"); ("key", Key.to_json key) ]
  | Synth (key, p) ->
      Jsonv.Obj (("op", Jsonv.Str "synth") :: ("key", Key.to_json key) :: params_fields p)
  | Batch (keys, p) ->
      Jsonv.Obj
        (("op", Jsonv.Str "batch")
        :: ("jobs", Jsonv.Arr (List.map Key.to_json keys))
        :: params_fields p)
  | Stats -> Jsonv.Obj [ ("op", Jsonv.Str "stats") ]
  | Shutdown -> Jsonv.Obj [ ("op", Jsonv.Str "shutdown") ]

let ( let* ) = Result.bind

let params_of_json j =
  let field name conv default =
    match Jsonv.member name j with
    | None | Some Jsonv.Null -> Ok default
    | Some v -> conv v
  in
  let* timeout =
    field "timeout" (fun v -> Result.map Option.some (Jsonv.to_float v)) None
  in
  let* budget = field "budget" (fun v -> Result.map Option.some (Jsonv.to_int v)) None in
  let* retries = field "retries" Jsonv.to_int default_params.retries in
  let* backoff = field "backoff" Jsonv.to_float default_params.backoff in
  let* optimize =
    field "optimize"
      (function Jsonv.Bool b -> Ok b | _ -> Error "optimize: expected bool")
      default_params.optimize
  in
  let* deadline =
    field "deadline" (fun v -> Result.map Option.some (Jsonv.to_float v)) None
  in
  if retries < 0 then Error "retries: must be >= 0"
  else if backoff < 0. then Error "backoff: must be >= 0"
  else Ok { timeout; budget; retries; backoff; optimize; deadline }

let request_of_json j =
  match Jsonv.member "op" j with
  | None -> Error "request: missing \"op\""
  | Some op -> (
      let* op = Jsonv.to_str op in
      match op with
      | "lookup" | "synth" -> (
          match Jsonv.member "key" j with
          | None -> Error (Printf.sprintf "%s: missing \"key\"" op)
          | Some kj ->
              let* key = Key.of_json kj in
              if op = "lookup" then Ok (Lookup key)
              else
                let* p = params_of_json j in
                Ok (Synth (key, p)))
      | "batch" -> (
          match Jsonv.member "jobs" j with
          | None -> Error "batch: missing \"jobs\""
          | Some jobs ->
              let* jobs = Jsonv.to_list jobs in
              let* keys =
                List.fold_left
                  (fun acc kj ->
                    let* acc = acc in
                    let* key = Key.of_json kj in
                    Ok (key :: acc))
                  (Ok []) jobs
              in
              let* p = params_of_json j in
              Ok (Batch (List.rev keys, p)))
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "request: unknown op %S" other))

let parse_request line =
  let* j = Jsonv.parse line in
  request_of_json j

(* ---------- responses ---------- *)

let opt_str = function Some s -> Jsonv.Str s | None -> Jsonv.Null
let opt_int = function Some i -> Jsonv.Int i | None -> Jsonv.Null
let opt_float = function Some f -> Jsonv.Float f | None -> Jsonv.Null

let served_fields s =
  [
    ("status", Jsonv.Str s.status);
    ("source", opt_str s.source);
    ("canonical", Jsonv.Str s.canonical);
    ("kernel", opt_str s.kernel);
    ("length", opt_int s.length);
    ("degraded", Jsonv.Bool s.degraded);
    ("rung", Jsonv.Int s.rung);
    ("attempts", Jsonv.Int s.attempts);
    ("elapsed_s", Jsonv.Float s.elapsed);
    ("coalesced", Jsonv.Bool s.coalesced);
    ("error", opt_str s.error);
    ("retry_after_s", opt_float s.retry_after);
  ]

let response_to_json = function
  | Served s ->
      Jsonv.Obj (("ok", Jsonv.Bool true) :: ("type", Jsonv.Str "served") :: served_fields s)
  | Jobs jobs ->
      Jsonv.Obj
        [
          ("ok", Jsonv.Bool true);
          ("type", Jsonv.Str "jobs");
          ("jobs", Jsonv.Arr (List.map (fun s -> Jsonv.Obj (served_fields s)) jobs));
        ]
  | Snapshot j ->
      Jsonv.Obj [ ("ok", Jsonv.Bool true); ("type", Jsonv.Str "stats"); ("stats", j) ]
  | Goodbye -> Jsonv.Obj [ ("ok", Jsonv.Bool true); ("type", Jsonv.Str "goodbye") ]
  | Refused msg -> Jsonv.Obj [ ("ok", Jsonv.Bool false); ("error", Jsonv.Str msg) ]
  | Overloaded retry_after ->
      Jsonv.Obj
        [
          ("ok", Jsonv.Bool false);
          ("type", Jsonv.Str "overloaded");
          ("error", Jsonv.Str "server overloaded: connection budget exhausted");
          ("retry_after_s", Jsonv.Float retry_after);
        ]

let served_of_json j =
  let str name =
    match Jsonv.member name j with
    | Some (Jsonv.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "served: missing %S" name)
  in
  let ostr name =
    match Jsonv.member name j with Some (Jsonv.Str s) -> Some s | _ -> None
  in
  let oint name =
    match Jsonv.member name j with Some (Jsonv.Int i) -> Some i | _ -> None
  in
  let bool name =
    match Jsonv.member name j with Some (Jsonv.Bool b) -> b | _ -> false
  in
  let num name default =
    match Jsonv.member name j with
    | Some v -> ( match Jsonv.to_float v with Ok f -> f | Error _ -> default)
    | None -> default
  in
  let onum name =
    match Jsonv.member name j with
    | Some (Jsonv.Null) | None -> None
    | Some v -> ( match Jsonv.to_float v with Ok f -> Some f | Error _ -> None)
  in
  let* status = str "status" in
  let* canonical = str "canonical" in
  Ok
    {
      status;
      source = ostr "source";
      canonical;
      kernel = ostr "kernel";
      length = oint "length";
      degraded = bool "degraded";
      rung = (match oint "rung" with Some r -> r | None -> 0);
      attempts = (match oint "attempts" with Some a -> a | None -> 0);
      elapsed = num "elapsed_s" 0.;
      coalesced = bool "coalesced";
      error = ostr "error";
      retry_after = onum "retry_after_s";
    }

let response_of_json j =
  match Jsonv.member "ok" j with
  | Some (Jsonv.Bool false) -> (
      match Jsonv.member "type" j with
      | Some (Jsonv.Str "overloaded") ->
          let retry_after =
            match Jsonv.member "retry_after_s" j with
            | Some v -> ( match Jsonv.to_float v with Ok f -> f | Error _ -> 0.1)
            | None -> 0.1
          in
          Ok (Overloaded retry_after)
      | _ -> (
          match Jsonv.member "error" j with
          | Some (Jsonv.Str msg) -> Ok (Refused msg)
          | _ -> Ok (Refused "unspecified server error")))
  | Some (Jsonv.Bool true) -> (
      match Jsonv.member "type" j with
      | Some (Jsonv.Str "served") -> Result.map (fun s -> Served s) (served_of_json j)
      | Some (Jsonv.Str "jobs") -> (
          match Jsonv.member "jobs" j with
          | Some (Jsonv.Arr jobs) ->
              let* served =
                List.fold_left
                  (fun acc sj ->
                    let* acc = acc in
                    let* s = served_of_json sj in
                    Ok (s :: acc))
                  (Ok []) jobs
              in
              Ok (Jobs (List.rev served))
          | _ -> Error "jobs response: missing \"jobs\" array")
      | Some (Jsonv.Str "stats") -> (
          match Jsonv.member "stats" j with
          | Some stats -> Ok (Snapshot stats)
          | None -> Error "stats response: missing \"stats\"")
      | Some (Jsonv.Str "goodbye") -> Ok Goodbye
      | Some (Jsonv.Str other) -> Error (Printf.sprintf "response: unknown type %S" other)
      | _ -> Error "response: missing \"type\"")
  | _ -> Error "response: missing \"ok\""

let parse_response line =
  let* j = Jsonv.parse line in
  response_of_json j

let request_line r = Jsonv.to_string (request_to_json r) ^ "\n"
let response_line r = Jsonv.to_string (response_to_json r) ^ "\n"
