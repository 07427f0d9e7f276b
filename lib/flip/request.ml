module Id_tbl = Address.Id_tbl

type 'r call = {
  id : int;
  calls : 'r calls;
  mutable closed : bool;
  mutable reply : 'r option;  (* set when it completes; closed without one: gave up *)
  mutable waiter : (Machine.Thread.t * (unit -> unit)) option;
  mutable timer : Sim.Engine.handle option;
  mutable tries : int;
}

and 'r calls = {
  eng : Sim.Engine.t;
  timeout : Sim.Time.span;
  max_retries : int;
  open_calls : 'r call Id_tbl.t;
  mutable opened : int;
  mutable retransmissions : int;
}

let create eng ~timeout ~max_retries =
  { eng; timeout; max_retries; open_calls = Id_tbl.create 8; opened = 0; retransmissions = 0 }

let start calls =
  calls.opened <- calls.opened + 1;
  let c =
    { id = calls.opened; calls; closed = false; reply = None; waiter = None; timer = None; tries = 0 }
  in
  Id_tbl.replace calls.open_calls c.id c;
  c

let id c = c.id
let tries c = c.tries
let opened calls = calls.opened
let outstanding calls = Id_tbl.length calls.open_calls
let retransmissions calls = calls.retransmissions
let find calls id = Id_tbl.find_opt calls.open_calls id

(* Closing a call forgets it and hands its blocked caller, if any, to
   [wake]. *)
let close c reply ~wake =
  Id_tbl.remove c.calls.open_calls c.id;
  c.closed <- true;
  c.reply <- reply;
  match c.waiter with
  | Some (thread, resume) ->
    c.waiter <- None;
    wake thread resume
  | None -> ()

(* Only an open call is armed, so a reply that lands before [arm] (or
   during a retransmission) leaves no timer behind; [complete] cancels the
   live one. *)
let rec arm ?(give_up = ignore) c ~retransmit =
  let calls = c.calls in
  if not c.closed then
    c.timer <-
      Some
        (Sim.Engine.after calls.eng calls.timeout (fun () ->
             if c.tries >= calls.max_retries then begin
               give_up ();
               close c None ~wake:(fun _ resume -> resume ())
             end
             else begin
               c.tries <- c.tries + 1;
               calls.retransmissions <- calls.retransmissions + 1;
               retransmit ();
               arm ~give_up c ~retransmit
             end))

let complete c r ~wake =
  if not c.closed then begin
    (match c.timer with Some h -> Sim.Engine.cancel c.calls.eng h | None -> ());
    close c (Some r) ~wake
  end

let await c =
  if not c.closed then
    Machine.Thread.suspend (fun thread resume -> c.waiter <- Some (thread, resume));
  c.reply

(* ------------------------------------------------------------------ *)
(* At-most-once replies *)

type 'r state = Processing | Replied of 'r | Acked

type 'r replies = { states : 'r state Id_tbl.t; order : int Queue.t }

let bound = 4096
let replies () = { states = Id_tbl.create 64; order = Queue.create () }
let lookup t ~client ~id = Id_tbl.find_opt t.states (Address.pair_key client id)

let add t ~client ~id state =
  let key = Address.pair_key client id in
  Id_tbl.replace t.states key state;
  Queue.push key t.order;
  while Queue.length t.order > bound do
    Id_tbl.remove t.states (Queue.pop t.order)
  done

let reply t ~client ~id r = Id_tbl.replace t.states (Address.pair_key client id) (Replied r)

let ack t ~client ~id =
  let key = Address.pair_key client id in
  if Id_tbl.mem t.states key then Id_tbl.replace t.states key Acked
