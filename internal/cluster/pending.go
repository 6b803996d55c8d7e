package cluster

import (
	"context"
	"sync"
)

// pending counts outstanding work items (queued operations and in-flight
// frames) so Quiesce can wait for the cluster to become idle.
type pending struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
}

func newPending() *pending {
	p := &pending{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pending) add(delta int) {
	p.mu.Lock()
	p.count += delta
	if p.count <= 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *pending) done() { p.add(-1) }

// idle reports whether the count is zero.
func (p *pending) idle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count <= 0
}

// wait blocks until the count reaches zero.
func (p *pending) wait() {
	p.mu.Lock()
	for p.count > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// waitCtx blocks until the count reaches zero or the context ends,
// returning the context's error in the latter case. This is what keeps a
// lost frame from hanging quiescence forever: the leaked count degrades
// to a timeout instead of a deadlock.
func (p *pending) waitCtx(ctx context.Context) error {
	if ctx.Done() == nil {
		p.wait()
		return nil
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			// Broadcast under the lock: a waiter holds it from its
			// ctx.Err check until cond.Wait suspends, so the wakeup
			// cannot slip into that window.
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		case <-stop:
		}
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.count > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cond.Wait()
	}
	return nil
}
