package wire

import "sync/atomic"

// The worker set runs the two per-call goroutine starts of the market's
// hot paths — a server's handler (Server.dispatch) and a federated
// import's query to one peer (trader's federatedMatches) — on reused
// goroutines. A goroutine starts with a small stack and grows it by
// copying as a handler's frames need more, so a fresh goroutine per call
// pays that growth on every call; a worker that parks once its job is
// done keeps the stack it grew for the next one.
//
// A job goes to a parked worker by a non-blocking send on an unbuffered
// channel, which succeeds only when some worker waits in the receive;
// when none does, a new goroutine runs the job and then parks too. A
// worker that finishes while maxIdle workers are parked exits, so at
// most maxIdle goroutines wait idle, and those hold no job: the parking
// worker's last job is out of scope before it parks. Parking sets no
// timer: an idle worker waits until the next job or for good.

// jobs hands a job to a parked worker.
var jobs = make(chan func())

// maxIdle caps the parked workers; tests shrink it.
var maxIdle atomic.Int32

// parked counts the workers parked or about to park; spawned counts the
// goroutines the set started (for tests).
var parked, spawned atomic.Int32

func init() { maxIdle.Store(128) }

// Go runs job on a parked worker or, when none is parked, on a new
// goroutine that becomes a worker once job returns. The hand-off
// allocates nothing; a new goroutine allocates job's wrapper, which a
// caller that must not allocate avoids with handOff and spawn.
func Go(job func()) {
	if !handOff(job) {
		spawn(func() { job(); park() })
	}
}

// handOff gives job to a parked worker, false when none is parked.
func handOff(job func()) bool {
	select {
	case jobs <- job:
		return true
	default:
		return false
	}
}

// spawn starts start, which runs one job and then calls park. Bound
// once, as a method value, it starts without a closure.
func spawn(start func()) {
	spawned.Add(1)
	go start()
}

// park makes the calling goroutine a worker: it runs the jobs handed to
// it until it finishes one while the set holds maxIdle parked workers,
// and returns then. A job that panics or calls runtime.Goexit takes its
// worker with it, as it would a goroutine of its own, while the set
// counts only the workers it has parked.
func park() {
	for parked.Add(1) <= maxIdle.Load() {
		job := <-jobs
		parked.Add(-1)
		job()
	}
	parked.Add(-1)
}
