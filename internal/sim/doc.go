// Package sim is a flit-level event-driven wormhole-routing simulator — a
// from-scratch substitute for the Harvey Mudd MARS simulator the paper used.
//
// It implements exactly the router architecture of Section 3:
//
//   - one output buffer and one output-channel request queue (OCRQ) per
//     unidirectional channel;
//   - input buffers of configurable flit capacity (default 1, the paper's
//     headline configuration) with credit-based flow control;
//   - atomic enqueueing of a message's full output-channel request set;
//   - acquisition only when the message heads every requested OCRQ and all
//     requested channels are free with empty output buffers;
//   - asynchronous replication: a data flit advances from the input buffer
//     only when all reserved output buffers are empty; bubble flits are
//     inserted into the empty output buffers otherwise so that the heads of
//     a multi-head worm progress independently;
//   - channel reservations released when the tail flit is replicated to the
//     output buffers.
//
// Timing follows the paper's Section 4 constants (configurable): startup
// latency per message, router setup latency per header per router, and
// channel propagation latency per flit per channel. Time is int64
// nanoseconds. A simulator instance is single-threaded and deterministic;
// run replications in parallel by creating one instance per goroutine.
//
// Events are flit-level, with one exception that changes no result. Once a
// worm's header has reached every destination and no bubble of it is live,
// its whole tree streams in lockstep, one flit per channel per ChanPropNs
// tick. The engine then advances it as a flit train (train.go): one queue
// entry per tick, O(1) arithmetic per body tick, and a replay of the
// per-flit handlers, at the per-flit position, for every tick in which
// something other code can observe happens (the tail leaving the source,
// channel releases, deliveries). Every worm time, counter, channel load and
// trace line is identical to per-flit stepping; only Counters.Events, the
// count of engine steps, falls. Trains stay off in trials that run a fault
// script, and for configurations outside the exactness argument (IBR,
// multi-flit input buffers, setup or startup latencies that are not
// multiples of ChanPropNs greater than it).
package sim
