package core

import "sync"

// workerPool is the engine's persistent shard-execution pool: one run per
// Step fans the stage plan's shards out and barriers before Step reduces
// their accumulators.
//
// The pool parks workers goroutines on a task channel between Steps;
// run executes shard 0 on the calling goroutine so a pool serving W-way
// sharding needs only W-1 workers. Tasks carry the shard function by
// value, so idle workers hold no reference to the Engine and an abandoned
// engine's finalizer can still fire and shut the pool down.
type workerPool struct {
	tasks chan poolTask
	wg    sync.WaitGroup
	once  sync.Once
}

type poolTask struct {
	fn    func(shard int)
	shard int
}

// newWorkerPool starts workers goroutines parked on the task channel.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask, workers)}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for t := range p.tasks {
		t.fn(t.shard)
		p.wg.Done()
	}
}

// run executes fn(s) for every shard s in [0, shards) and returns when all
// shards have completed. Shard 0 runs on the calling goroutine. The
// WaitGroup barrier establishes the happens-before edge the caller needs
// to observe every shard's writes.
func (p *workerPool) run(fn func(shard int), shards int) {
	p.wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		p.tasks <- poolTask{fn: fn, shard: s}
	}
	fn(0)
	p.wg.Wait()
}

// close shuts the workers down. Idempotent; run must not be called after.
func (p *workerPool) close() {
	p.once.Do(func() { close(p.tasks) })
}
