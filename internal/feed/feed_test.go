package feed

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/chain"
	"arbloop/internal/source"
)

// mutablePools is a PoolSource whose pool set tests swap underneath the
// watcher.
type mutablePools struct {
	mu    sync.Mutex
	pools []*amm.Pool
	err   error
}

func (m *mutablePools) Pools(ctx context.Context) ([]*amm.Pool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	out := make([]*amm.Pool, len(m.pools))
	copy(out, m.pools)
	return out, nil
}

func (m *mutablePools) set(pools []*amm.Pool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pools, m.err = pools, err
}

func pool(t *testing.T, id, t0, t1 string, r0, r1 float64) *amm.Pool {
	t.Helper()
	p, err := amm.NewPool(id, t0, t1, r0, r1, amm.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRefreshVersionsAndTopologyChange(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)
	ctx := context.Background()

	u1, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u1.Version != 1 || !u1.TopologyChanged {
		t.Errorf("first update = v%d topo=%v, want v1 topo=true", u1.Version, u1.TopologyChanged)
	}

	// Reserves move: version advances, topology does not change.
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 150, 160)}, nil)
	u2, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u2.Version != 2 || u2.TopologyChanged {
		t.Errorf("reserve move = v%d topo=%v, want v2 topo=false", u2.Version, u2.TopologyChanged)
	}
	if u2.Fingerprint != u1.Fingerprint {
		t.Error("reserve move changed the fingerprint")
	}

	// A pool appears: topology changed.
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 150, 160), pool(t, "p2", "Y", "Z", 10, 10)}, nil)
	u3, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u3.Version != 3 || !u3.TopologyChanged {
		t.Errorf("pool add = v%d topo=%v, want v3 topo=true", u3.Version, u3.TopologyChanged)
	}

	if got := w.Latest(); got.Version != 3 {
		t.Errorf("Latest() = v%d, want v3", got.Version)
	}
}

func TestRefreshSourceError(t *testing.T) {
	src := &mutablePools{}
	src.set(nil, errors.New("rpc down"))
	w := NewWatcher(src)
	if _, err := w.Refresh(context.Background()); err == nil {
		t.Error("source error not surfaced")
	}
	if w.Latest().Version != 0 {
		t.Error("failed refresh published a version")
	}
}

func TestSubscribeCoalescesToLatest(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)
	ch, cancel := w.Subscribe()
	defer cancel()

	// Publish a burst without the subscriber reading: only the newest
	// survives in the one-slot buffer.
	for i := 0; i < 5; i++ {
		if _, err := w.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	u := <-ch
	if u.Version != 5 {
		t.Errorf("slow subscriber got v%d, want the latest v5", u.Version)
	}
	select {
	case u := <-ch:
		t.Errorf("backlog leaked: got extra v%d", u.Version)
	default:
	}
}

func TestLateSubscriberSeesCurrentState(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)
	if _, err := w.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ch, cancel := w.Subscribe()
	defer cancel()
	select {
	case u := <-ch:
		if u.Version != 1 {
			t.Errorf("late subscriber got v%d", u.Version)
		}
	case <-time.After(time.Second):
		t.Error("late subscriber saw nothing")
	}
}

func TestSubscribeCancelAndClose(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)

	ch1, cancel1 := w.Subscribe()
	cancel1()
	cancel1() // idempotent
	if _, ok := <-ch1; ok {
		t.Error("cancelled subscription channel still open")
	}

	ch2, _ := w.Subscribe()
	w.Close()
	if _, ok := <-ch2; ok {
		t.Error("Close left a subscription open")
	}
	if _, err := w.Refresh(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Refresh after Close = %v, want ErrClosed", err)
	}
	// Subscribing after Close yields a closed channel, not a hang.
	ch3, cancel3 := w.Subscribe()
	defer cancel3()
	if _, ok := <-ch3; ok {
		t.Error("post-Close subscription delivered")
	}
}

func TestRunNotifyDriven(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)
	ch, cancel := w.Subscribe()
	defer cancel()

	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, 0) }()

	w.Notify()
	select {
	case u := <-ch:
		if u.Version != 1 {
			t.Errorf("got v%d", u.Version)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Notify produced no update")
	}

	stop()
	if err := <-done; err != nil {
		t.Errorf("Run returned %v on cancellation", err)
	}
	if _, ok := <-ch; ok {
		t.Error("Run exit left the subscription open")
	}
}

func TestRunPolling(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)
	ch, cancel := w.Subscribe()
	defer cancel()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() { _ = w.Run(ctx, 5*time.Millisecond) }()

	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("polling produced no update")
	}
}

func TestRefreshChangedPools(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200), pool(t, "p2", "Y", "Z", 10, 10)}, nil)
	w := NewWatcher(src)
	ctx := context.Background()

	u1, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u1.ChangedPools != nil {
		t.Errorf("first update has dirty set %v, want nil (unknown baseline)", u1.ChangedPools)
	}

	// Nothing moved: a known, empty dirty set.
	u2, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u2.ChangedPools == nil || len(u2.ChangedPools) != 0 {
		t.Errorf("no-op update dirty set = %v, want non-nil empty", u2.ChangedPools)
	}

	// One pool trades: exactly it is dirty.
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200), pool(t, "p2", "Y", "Z", 12, 9)}, nil)
	u3, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(u3.ChangedPools) != 1 || u3.ChangedPools[0] != "p2" {
		t.Errorf("dirty set = %v, want [p2]", u3.ChangedPools)
	}
	if u3.TopologyChanged {
		t.Error("reserve move reported a topology change")
	}

	// Topology change: dirty set unknown again.
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	u4, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !u4.TopologyChanged || u4.ChangedPools != nil {
		t.Errorf("pool removal: topo=%v dirty=%v, want topo=true dirty=nil", u4.TopologyChanged, u4.ChangedPools)
	}
}

// TestRefreshPermutedOrderIsNotTopologyChange is the fingerprint-order
// regression: a source returning the same pool set in a different order
// must not signal a (spurious) topology change or dirty any pool.
func TestRefreshPermutedOrderIsNotTopologyChange(t *testing.T) {
	src := &mutablePools{}
	a, b := pool(t, "p1", "X", "Y", 100, 200), pool(t, "p2", "Y", "Z", 10, 10)
	src.set([]*amm.Pool{a, b}, nil)
	w := NewWatcher(src)
	ctx := context.Background()
	u1, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}

	src.set([]*amm.Pool{b, a}, nil) // same set, swapped order
	u2, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u2.TopologyChanged {
		t.Error("permuted pool order reported a topology change")
	}
	if u2.Fingerprint != u1.Fingerprint {
		t.Error("permuted pool order changed the fingerprint")
	}
	if len(u2.ChangedPools) != 0 {
		t.Errorf("permuted pool order dirtied %v", u2.ChangedPools)
	}
}

// flakySource fails its first n reads, then serves pools — the transient
// outage (one bad poll, an RPC hiccup) that must not kill the feed.
type flakySource struct {
	mu       sync.Mutex
	failures int
	calls    int
	pools    []*amm.Pool
}

func (f *flakySource) Pools(ctx context.Context) ([]*amm.Pool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failures {
		return nil, fmt.Errorf("transient outage %d", f.calls)
	}
	out := make([]*amm.Pool, len(f.pools))
	copy(out, f.pools)
	return out, nil
}

// TestRunRetriesTransientFailure is the feed-teardown regression: one
// failed poll used to make Run return and Close every subscription. Now
// it retries with backoff, the subscriber sees the update, and the error
// callback saw the transient failures.
func TestRunRetriesTransientFailure(t *testing.T) {
	src := &flakySource{failures: 2, pools: []*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}}
	var seen []error
	var seenMu sync.Mutex
	w := NewWatcher(src,
		WithRetry(3, time.Millisecond),
		WithErrorHandler(func(err error) {
			seenMu.Lock()
			seen = append(seen, err)
			seenMu.Unlock()
		}))
	ch, cancel := w.Subscribe()
	defer cancel()

	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, 0) }()
	w.Notify()

	select {
	case u, ok := <-ch:
		if !ok {
			t.Fatal("transient failure closed the subscription")
		}
		if u.Version != 1 {
			t.Errorf("got v%d", u.Version)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("feed never recovered from the transient failure")
	}
	stop()
	if err := <-done; err != nil {
		t.Errorf("Run returned %v after recovering", err)
	}
	seenMu.Lock()
	defer seenMu.Unlock()
	if len(seen) != 2 {
		t.Errorf("error callback saw %d errors, want 2 transients", len(seen))
	}
}

// TestRunExhaustsRetryBudget: a persistent failure must still surface
// (bounded retries, not an infinite loop hiding a dead source).
func TestRunExhaustsRetryBudget(t *testing.T) {
	src := &flakySource{failures: 1 << 30}
	w := NewWatcher(src, WithRetry(2, time.Millisecond))
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, 0) }()
	w.Notify()
	select {
	case err := <-done:
		if err == nil {
			t.Error("persistent failure not surfaced")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after exhausting retries")
	}
	if src.calls != 2 {
		t.Errorf("source read %d times, want exactly the 2-attempt budget", src.calls)
	}
}

func TestRunSurfacesRefreshError(t *testing.T) {
	src := &mutablePools{}
	src.set(nil, errors.New("rpc down"))
	w := NewWatcher(src)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, 0) }()
	w.Notify()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run swallowed the refresh error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit on refresh error")
	}
}

func TestChainBlockHookDrivesWatcher(t *testing.T) {
	state := chain.NewState(0)
	if err := state.AddPool("p1", "X", "Y", big.NewInt(1_000_000), big.NewInt(2_000_000), 30); err != nil {
		t.Fatal(err)
	}
	src := source.FromChain(state, 1_000_000)
	w := NewWatcher(src, WithHeightProbe(state.Height))
	state.OnBlock(func(int64) { w.Notify() })

	ch, cancel := w.Subscribe()
	defer cancel()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() { _ = w.Run(ctx, 0) }()

	state.Block(nil)
	select {
	case u := <-ch:
		if u.Height != 1 {
			t.Errorf("update height = %d, want 1", u.Height)
		}
		if len(u.Pools) != 1 {
			t.Errorf("pools = %d", len(u.Pools))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sealed block produced no feed update")
	}
}

func TestConcurrentRefreshMonotonicVersions(t *testing.T) {
	src := &mutablePools{}
	src.set([]*amm.Pool{pool(t, "p1", "X", "Y", 100, 200)}, nil)
	w := NewWatcher(src)

	// A reader that asserts versions never regress while 8 writers
	// publish concurrently.
	ch, cancel := w.Subscribe()
	defer cancel()
	readerDone := make(chan error, 1)
	go func() {
		last := uint64(0)
		for u := range ch {
			if u.Version <= last {
				readerDone <- fmt.Errorf("version regressed: %d after %d", u.Version, last)
				return
			}
			last = u.Version
		}
		readerDone <- nil
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := w.Refresh(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	w.Close()
	if err := <-readerDone; err != nil {
		t.Error(err)
	}
	if got := w.Latest().Version; got != 200 {
		t.Errorf("final version = %d, want 200", got)
	}
}
