(* Order statistics over timing samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; 0. when there are no samples. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank [p] percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float n))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float (Array.length a)

(* Run [f] [reps] times; the wall seconds of each call. *)
let time_reps reps f =
  Array.init reps (fun _ ->
      let t0 = Fault.Clock.now () in
      ignore (Sys.opaque_identity (f ()));
      Fault.Clock.now () -. t0)

(* [VmHWM] of a process, in MiB: its peak resident set size. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
      in
      find ())

(* Host CPU steal: cumulative jiffies in which the hypervisor ran someone
   else while this machine's CPUs wanted to run (/proc/stat, first line).
   On a shared host it is the main source of run-to-run noise. *)
let steal_jiffies () =
  let ic = open_in "/proc/stat" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic)) with
      | "cpu" :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: st :: _ ->
          int_of_string st
      | _ -> 0)

(* Steal jiffies per second of wall time the host could take: USER_HZ
   (100) per CPU. *)
let jiffies_per_s =
  lazy
    (let ic = open_in "/proc/stat" in
     let rec count n =
       match input_line ic with
       | l when String.length l > 3 && String.sub l 0 3 = "cpu" -> count (n + 1)
       | _ | (exception End_of_file) -> n
     in
     let lines = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> count 0) in
     100. *. float (max 1 (lines - 1)))

(* Share of [seconds] of this machine's CPU time the host stole. *)
let steal_share ~seconds jiffies =
  if seconds <= 0. then 0. else float jiffies /. (seconds *. Lazy.force jiffies_per_s)

(* The quiet ones among (seconds, steal jiffies) measurements: those the
   host took at most 2% from, when they are at least a quarter of all;
   otherwise the quarter the host took the least from (earlier first on
   ties). On a quiet host that is all of them. *)
let quiet ms =
  let n = Array.length ms in
  let share = Array.map (fun (dt, st) -> steal_share ~seconds:dt st) ms in
  let need = (n + 3) / 4 in
  let low = Array.map (fun s -> s <= 0.02) share in
  if Array.fold_left (fun k q -> if q then k + 1 else k) 0 low >= need then low
  else begin
    let order = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Float.compare share.(i) share.(j)) order;
    let keep = Array.make n false in
    Array.iteri (fun rank i -> if rank < need then keep.(i) <- true) order;
    keep
  end

(* The durations of the quiet ones among (seconds, steal) measurements. *)
let quiet_times ms =
  let keep = quiet ms in
  Array.of_list (List.filteri (fun i _ -> keep.(i)) (List.map fst (Array.to_list ms)))

(* [f ()] with its wall seconds and the host steal (jiffies) during it. *)
let timed_steal f =
  let s0 = steal_jiffies () and t0 = Fault.Clock.now () in
  let v = f () in
  let dt = Fault.Clock.now () -. t0 in
  (v, (dt, steal_jiffies () - s0))
