(** A simulated processor board: one CPU and a cost configuration.

    Corresponds to one Tsunami board of the paper's processor pool.  Network
    devices ([Nic]) and protocol stacks attach themselves to a machine; the
    machine only owns the CPU-time model. *)

type config = {
  ctx_warm : Sim.Time.span;
      (** resuming the thread whose context is still loaded (the paper's
          dedicated-sequencer case, ~60 µs) *)
  ctx_cold_idle : Sim.Time.span;
      (** switching to another thread while no thread was computing
          (~70 µs; the paper's RPC reply path charges two of these) *)
  ctx_cold_preempt : Sim.Time.span;
      (** switching that must first save a running thread's context
          (~110 µs; the paper's user-space sequencer path) *)
  interrupt_entry : Sim.Time.span;
      (** dispatch overhead added to every interrupt *)
  syscall_base : Sim.Time.span;
      (** one user{->}kernel{->}user crossing, excluding window traps *)
  trap_cost : Sim.Time.span;  (** one register-window trap (~6 µs) *)
  lock_cost : Sim.Time.span;  (** uncontended user-space lock/unlock pair *)
  reg_windows : int;  (** register windows per CPU (6 on the SPARCs) *)
}

type t

val create : Sim.Engine.t -> id:int -> name:string -> config -> t

val id : t -> int
val name : t -> string
val engine : t -> Sim.Engine.t
val cpu : t -> Cpu.t
val config : t -> config

val interrupt :
  ?layer:Obs.Layer.t ->
  ?charges:(Obs.Layer.t * Obs.Cause.t * Sim.Time.span) list ->
  t -> name:string -> cost:Sim.Time.span -> (unit -> unit) -> unit
(** [interrupt t ~name ~cost handler] models a hardware/software interrupt:
    [cost] CPU time at top priority (preempting any thread), then [handler]
    runs to completion in interrupt context.  Handlers must not block.

    For cost attribution (timing is unaffected): the fixed interrupt entry
    is charged to [(layer, Uk_crossing)]; [cost] is charged per [charges]
    with any un-itemised remainder going to [(layer, Proto_proc)].  [layer]
    defaults to [App]. *)

val utilization : t -> until:Sim.Time.t -> float
(** CPU busy fraction over [0, until]. *)
