(* The serve workloads' fixed inputs: a universe of cheap n=3 keys, the
   300 of them pre-populated in a registry, and a pool of the other 2500 that
   are never stored, so a request for one is a miss that searches.

   The selection does not depend on the workload seed (the seed only
   draws the request stream), so the fixture is built once per checkout,
   by the program's own batch scheduler, and cached under [work_dir].
   Every run serves a fresh copy. The manifest records each key's kernel
   length, which the runs check every answer against. *)

module Key = Registry.Key

let work_dir = ".perfbench-work"
let version = "fixture-v2"
let cfg = Isa.Config.make ~n:3 ~m:1
let stored_count = 300
let pool_count = 2500

(* No n=3 kernel with one scratch register is shorter than this. *)
let optimum = 11

(* Keys vary in heuristic, length bound and a 3-decimal cut factor in
   [1.000, 1.099]: every one is an A* search of about 50 ms. *)
let universe =
  let heuristics =
    [| Search.Perm_count; Search.Assign_count; Search.Dist_bound; Search.No_heuristic |]
  in
  let bounds = [| None; Some 11; Some 12; Some 13; Some 14; Some 15; Some 16 |] in
  Array.concat
    (List.concat_map
       (fun h ->
         List.map
           (fun b ->
             Array.init 100 (fun c ->
                 let cut = Search.Mult (float_of_string (Printf.sprintf "1.%03d" c)) in
                 Key.make ~heuristic:h ~cut ?max_len:b 3))
           (Array.to_list bounds))
       (Array.to_list heuristics))

type t = {
  root : string;  (** Registry root holding the stored keys. *)
  stored : Key.t array;
  pool : Key.t array;  (** Never stored: each one is a miss. *)
  length : (string, int) Hashtbl.t;  (** Canonical key -> kernel length. *)
}

let length_of t key = Hashtbl.find t.length (Key.canonical key)

(* ---------- files ---------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else copy_file src dst

(* ---------- build / load ---------- *)

let dir () = Filename.concat work_dir version
let manifest_path d = Filename.concat d "manifest.tsv"

(* A copy of [a] in the Fisher-Yates order drawn from [seed]. *)
let shuffled seed a =
  let a = Array.copy a and rng = Random.State.make seed in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A fixed shuffle of the universe: the first [stored_count] keys are
   stored, the next [pool_count] form the miss pool. *)
let selection () =
  let keys = shuffled [| 20250301 |] universe in
  (Array.sub keys 0 stored_count, Array.sub keys stored_count pool_count)

let lengths_of (b : Registry.Scheduler.batch) =
  List.map
    (fun (j : Registry.Scheduler.job_result) ->
      match (j.status, j.length) with
      | (Registry.Scheduler.Cached | Registry.Scheduler.Synthesized), Some l -> (j.key, l)
      | s, _ ->
          failwith
            (Printf.sprintf "fixture key %s: %s" (Key.canonical j.key)
               (Registry.Scheduler.status_string s)))
    b.results

let build d =
  let stored, pool = selection () in
  let tmp = Printf.sprintf "%s/tmp-%d" work_dir (Unix.getpid ()) in
  rm_rf tmp;
  mkdir_p tmp;
  let root = Filename.concat tmp "registry" in
  let t0 = Fault.Clock.now () in
  let s = Registry.Scheduler.run_batch ~root ~workers:2 (Array.to_list stored) in
  let p = Registry.Scheduler.run_batch ~workers:2 (Array.to_list pool) in
  let oc = open_out (manifest_path tmp) in
  List.iter (fun (k, l) -> Printf.fprintf oc "stored\t%d\t%s\n" l (Key.canonical k)) (lengths_of s);
  List.iter (fun (k, l) -> Printf.fprintf oc "pool\t%d\t%s\n" l (Key.canonical k)) (lengths_of p);
  close_out oc;
  rm_rf d;
  Sys.rename tmp d;
  Printf.eprintf "perfbench: built the serve fixture in %.1f s\n%!" (Fault.Clock.now () -. t0)

let load d =
  let by_canonical = Hashtbl.create 4096 in
  Array.iter (fun k -> Hashtbl.replace by_canonical (Key.canonical k) k) universe;
  let length = Hashtbl.create 2048 in
  let stored = ref [] and pool = ref [] in
  In_channel.with_open_text (manifest_path d) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ "" ] -> ()
         | [ kind; l; canonical ] ->
             let key = Hashtbl.find by_canonical canonical and l = int_of_string l in
             if l < optimum then failwith (canonical ^ ": recorded length below the n=3 optimum");
             Hashtbl.replace length canonical l;
             if kind = "stored" then stored := key :: !stored else pool := key :: !pool
         | _ -> failwith "malformed fixture manifest line");
  let t =
    {
      root = Filename.concat d "registry";
      stored = Array.of_list (List.rev !stored);
      pool = Array.of_list (List.rev !pool);
      length;
    }
  in
  if Array.length t.stored <> stored_count || Array.length t.pool <> pool_count then
    failwith "fixture manifest has the wrong key counts";
  t

(* The cached fixture, built first if this checkout has none. *)
let get () =
  let d = dir () in
  if not (Sys.file_exists (manifest_path d)) then build d;
  load d

(* A private copy of the fixture registry for one run. *)
let copy t dst =
  rm_rf dst;
  copy_tree t.root dst
