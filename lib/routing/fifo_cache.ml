type ('k, 'v) t = {
  lock : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t;  (* insertion order, for eviction *)
  cap : int;
}

let create cap =
  { lock = Mutex.create (); tbl = Hashtbl.create (2 * cap); order = Queue.create (); cap }

let find c k = Mutex.protect c.lock (fun () -> Hashtbl.find_opt c.tbl k)

let add c k v =
  Mutex.protect c.lock (fun () ->
      if not (Hashtbl.mem c.tbl k) then begin
        Hashtbl.replace c.tbl k v;
        Queue.push k c.order;
        if Hashtbl.length c.tbl > c.cap then Hashtbl.remove c.tbl (Queue.pop c.order)
      end)
