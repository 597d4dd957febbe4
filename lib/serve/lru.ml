(* Bounded in-memory LRU over certified registry entries.

   Keyed by the canonical key string; a hit is a hashtable probe plus two
   linked-list splices — no disk, no directory scan, no n!
   re-certification. The certified-at-admission contract lives in the
   callers: the only two paths that reach [add] are a disk lookup that
   just re-certified the entry and a fresh synthesis whose insert
   certified it, so everything in the cache carries a proof. *)

type node = {
  canonical : string;
  entry : Registry.Store.entry;
  mutable prev : node option;  (* toward the most-recent end *)
  mutable next : node option;  (* toward the least-recent end *)
}

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used; evicted first *)
  mutex : Mutex.t;
  hits : Obs.counter;
  misses : Obs.counter;
  evictions : Obs.counter;
}

let create ~capacity ~hits ~misses ~evictions =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    mutex = Mutex.create ();
    hits;
    misses;
    evictions;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Splice a node out of the recency list (it must be linked). *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t canonical =
  locked t (fun () ->
      match Hashtbl.find_opt t.table canonical with
      | Some n ->
          Obs.incr t.hits;
          unlink t n;
          push_front t n;
          Some n.entry
      | None ->
          Obs.incr t.misses;
          None)

let add t canonical entry =
  if t.capacity > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.table canonical with
        | Some old -> unlink t old; Hashtbl.remove t.table canonical
        | None -> ());
        let n = { canonical; entry; prev = None; next = None } in
        Hashtbl.replace t.table canonical n;
        push_front t n;
        if Hashtbl.length t.table > t.capacity then
          match t.tail with
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.canonical;
              Obs.incr t.evictions
          | None -> ())

let remove t canonical =
  locked t (fun () ->
      match Hashtbl.find_opt t.table canonical with
      | Some n ->
          unlink t n;
          Hashtbl.remove t.table canonical
      | None -> ())

let length t = locked t (fun () -> Hashtbl.length t.table)
let capacity t = t.capacity

(* Registry keys, most recently used first — the warm set a draining
   server persists so a restart can re-admit (and re-certify) the same
   working set before traffic returns. *)
let keys t =
  locked t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some n -> go (n.entry.Registry.Store.key :: acc) n.next
      in
      go [] t.head)

(* Canonical keys, most recently used first — test introspection. *)
let contents t =
  locked t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some n -> go (n.canonical :: acc) n.next
      in
      go [] t.head)
