package sim

// FCFSQueue models a single server with first-come-first-served
// discipline — in this repository, one disk spindle. A job arriving at
// time t with service demand s begins service at max(t, busyUntil) and
// completes at start+s.
//
// Because the replayer submits jobs in global arrival order, tracking
// only the busy horizon reproduces exactly the completion times a full
// event-driven FCFS simulation would compute.
type FCFSQueue struct {
	busyUntil Time

	// accounting
	busyTime Duration // total time the server spent serving
	waitTime Duration // total time jobs spent queued before service
}

// NewFCFSQueue returns an idle queue.
func NewFCFSQueue() *FCFSQueue { return &FCFSQueue{} }

// Submit enqueues a job arriving at 'arrive' with service time 'service'
// and returns its completion time.
func (q *FCFSQueue) Submit(arrive Time, service Duration) Time {
	start := MaxTime(arrive, q.busyUntil)
	q.waitTime += start.Sub(arrive)
	q.busyTime += service
	q.busyUntil = start.Add(service)
	return q.busyUntil
}

// SubmitAfter enqueues a job that additionally cannot start before
// 'ready' (e.g. the write phase of a read-modify-write that must wait
// for the read phase). It returns the completion time.
func (q *FCFSQueue) SubmitAfter(arrive, ready Time, service Duration) Time {
	return q.Submit(MaxTime(arrive, ready), service)
}

// BusyUntil reports the time at which the server next becomes idle.
func (q *FCFSQueue) BusyUntil() Time { return q.busyUntil }

// BusyTime reports the cumulative service time delivered.
func (q *FCFSQueue) BusyTime() Duration { return q.busyTime }

// WaitTime reports the cumulative time jobs spent waiting for service.
func (q *FCFSQueue) WaitTime() Duration { return q.waitTime }

// Reset returns the queue to its initial idle state.
func (q *FCFSQueue) Reset() { *q = FCFSQueue{} }
