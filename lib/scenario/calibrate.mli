(** Cost-profile calibration: fit {!Core.Params.net_profile} constants
    from measured probe runs.

    The golden 1995 tables are one pinned cost profile; this harness
    makes them one among several by recovering a profile's seven network
    constants from observable behaviour alone:

    - {e store probe} — one frame per payload size on an otherwise idle
      segment; the segment's wire-busy time is affine in the payload,
      giving [byte_time], [framing_bytes] and (from a null frame) the
      [min_payload] padding floor.
    - {e load probe} — the receiving machine's interrupt-context busy
      time for the same frames is affine in the payload, giving
      [rx_byte] and [rx_base] (the machine's known [interrupt_entry] is
      subtracted), and a multicast frame's surplus gives
      [rx_mcast_extra].
    - {e round-trip probe} — delivery time across the store-and-forward
      switch minus delivery time on a shared segment exceeds one wire
      time by exactly the switch [latency].

    Every observable is an integer nanosecond count and every constant
    is recovered by exact integer arithmetic, so fitting a measurement
    of an existing era round-trips it bit-exactly:
    [fit (measure ~net:Params.net10m ()) = Ok Params.net10m] up to the
    name/label strings. *)

type measurement = {
  m_era : string;  (** [np_name] of the profile measured *)
  m_intr_entry : int;  (** machine interrupt dispatch cost, ns (known) *)
  m_wire_busy : (int * int) list;
      (** [(payload bytes, segment busy ns)] per single-frame store
          probe, ascending payload; first entry payload 0 *)
  m_rx_intr : (int * int) list;
      (** [(payload bytes, receiver interrupt busy ns)], unicast *)
  m_rx_intr_mcast : int * int;
      (** [(payload bytes, receiver interrupt busy ns)], multicast; the
          payload matches one unicast probe *)
  m_probe_payload : int;  (** payload of the switch probe frame *)
  m_local_ns : int;  (** send-to-delivery, both machines on one segment *)
  m_cross_ns : int;  (** send-to-delivery across the switch *)
}

val measure :
  ?machine:Machine.Mach.config -> net:Core.Params.net_profile -> unit -> measurement
(** Runs the three probe simulations under [net] (machine constants
    default to {!Core.Params.calibrated}'s) and collects the raw integer
    observables.  Deterministic: no randomness anywhere. *)

val fit :
  ?name:string -> ?label:string -> measurement -> (Core.Params.net_profile, string) result
(** Recovers the profile by exact integer arithmetic ([name] defaults to
    ["fitted"]).  Errors when the observables are inconsistent with the
    affine cost model (non-divisible deltas, negative constants) instead
    of returning a rounded lie. *)

val verify :
  reference:Core.Params.net_profile ->
  Core.Params.net_profile ->
  float * float
(** [(reference_ms, fitted_ms)]: the user-stack null-RPC latency under
    both profiles — equal when the fit is exact, a one-number smoke test
    that a fitted profile actually reproduces end-to-end behaviour. *)

val pp : Format.formatter -> measurement -> unit
