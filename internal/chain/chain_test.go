package chain

import (
	"errors"
	"math/big"
	"sync"
	"testing"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

// paperState sets up the Section V pools scaled ×10⁶ for integer headroom.
func paperState(t *testing.T) *State {
	t.Helper()
	s := NewState(1_693_526_400) // 2023-09-01 00:00 UTC
	const scale = 1_000_000
	add := func(id, t0, t1 string, r0, r1 int64) {
		t.Helper()
		if err := s.AddPool(id, t0, t1, bi(r0*scale), bi(r1*scale), 30); err != nil {
			t.Fatal(err)
		}
	}
	add("p1", "X", "Y", 100, 200)
	add("p2", "Y", "Z", 300, 200)
	add("p3", "Z", "X", 200, 400)
	return s
}

func TestAddPoolValidation(t *testing.T) {
	s := NewState(0)
	if err := s.AddPool("p", "X", "X", bi(1), bi(1), 30); err == nil {
		t.Error("identical tokens: want error")
	}
	if err := s.AddPool("p", "X", "Y", bi(0), bi(1), 30); err == nil {
		t.Error("zero reserve: want error")
	}
	if err := s.AddPool("p", "X", "Y", nil, bi(1), 30); err == nil {
		t.Error("nil reserve: want error")
	}
	if err := s.AddPool("p", "X", "Y", bi(1000), bi(1000), 30); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPool("p", "X", "Y", bi(1000), bi(1000), 30); !errors.Is(err, ErrDuplicatePair) {
		t.Errorf("duplicate pool error = %v", err)
	}
}

func TestStateAccessors(t *testing.T) {
	s := paperState(t)
	ids := s.PoolIDs()
	if len(ids) != 3 || ids[0] != "p1" {
		t.Errorf("PoolIDs = %v", ids)
	}
	t0, t1, err := s.PoolTokens("p2")
	if err != nil || t0 != "Y" || t1 != "Z" {
		t.Errorf("PoolTokens(p2) = %q, %q, %v", t0, t1, err)
	}
	if _, _, err := s.PoolTokens("nope"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("unknown pair error = %v", err)
	}
	r0, r1, err := s.Reserves("p1")
	if err != nil || r0.Cmp(bi(100_000_000)) != 0 || r1.Cmp(bi(200_000_000)) != 0 {
		t.Errorf("Reserves(p1) = %s, %s, %v", r0, r1, err)
	}
	if _, _, err := s.Reserves("nope"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("unknown reserves error = %v", err)
	}
}

func TestExecuteProfitableArbitrage(t *testing.T) {
	s := paperState(t)
	// Paper: borrowing ~27 X (here 27e6 integer units) yields ~16.8e6 X.
	tx := Tx{
		Borrow: "X",
		Amount: bi(27_000_000),
		Steps: []SwapStep{
			{PairID: "p1", TokenIn: "X"},
			{PairID: "p2", TokenIn: "Y"},
			{PairID: "p3", TokenIn: "Z"},
		},
	}
	rcpt := s.ExecuteTx(tx)
	if !rcpt.OK {
		t.Fatalf("tx reverted: %v", rcpt.Err)
	}
	profit := rcpt.Profit["X"]
	if profit == nil {
		t.Fatal("no X profit recorded")
	}
	got := profit.Int64()
	if got < 16_500_000 || got > 17_100_000 {
		t.Errorf("profit = %d, want ≈ 16.8e6 (paper)", got)
	}
	// Intermediate tokens fully consumed.
	if rcpt.Profit["Y"] != nil || rcpt.Profit["Z"] != nil {
		t.Errorf("unexpected intermediate profit: %v", rcpt.Profit)
	}
	// Reserves moved.
	r0, _, err := s.Reserves("p1")
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cmp(bi(127_000_000)) != 0 {
		t.Errorf("p1 reserve0 = %s, want 127000000", r0)
	}
}

func TestExecuteUnprofitableReverts(t *testing.T) {
	s := paperState(t)
	// Reverse direction is guaranteed to lose money.
	tx := Tx{
		Borrow: "X",
		Amount: bi(10_000_000),
		Steps: []SwapStep{
			{PairID: "p3", TokenIn: "X"},
			{PairID: "p2", TokenIn: "Z"},
			{PairID: "p1", TokenIn: "Y"},
		},
	}
	before, _, err := s.Reserves("p3")
	if err != nil {
		t.Fatal(err)
	}
	_ = before
	r3b, _, _ := s.Reserves("p3")
	rcpt := s.ExecuteTx(tx)
	if rcpt.OK {
		t.Fatal("losing tx committed")
	}
	if !errors.Is(rcpt.Err, ErrUnprofitable) {
		t.Errorf("revert reason = %v, want ErrUnprofitable", rcpt.Err)
	}
	// State untouched after revert.
	r3a, _, err := s.Reserves("p3")
	if err != nil {
		t.Fatal(err)
	}
	if r3a.Cmp(r3b) != 0 {
		t.Error("revert leaked state changes")
	}
}

func TestExecuteTxValidation(t *testing.T) {
	s := paperState(t)
	tests := []struct {
		name string
		tx   Tx
		want error
	}{
		{name: "empty", tx: Tx{}, want: ErrBadTx},
		{name: "zero amount", tx: Tx{Borrow: "X", Amount: bi(0), Steps: []SwapStep{{PairID: "p1", TokenIn: "X"}}}, want: ErrBadTx},
		{name: "no steps", tx: Tx{Borrow: "X", Amount: bi(1)}, want: ErrBadTx},
		{name: "unknown pair", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "nope", TokenIn: "X"}}}, want: ErrUnknownPair},
		{name: "token not in pair", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "p2", TokenIn: "X"}}}, want: ErrBadTx},
		{name: "unfunded step", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "p2", TokenIn: "Y"}}}, want: ErrUnfunded},
		{name: "overspend", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "p1", TokenIn: "X", AmountIn: bi(1_000)}}}, want: ErrUnfunded},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rcpt := s.ExecuteTx(tt.tx)
			if rcpt.OK {
				t.Fatal("tx committed")
			}
			if !errors.Is(rcpt.Err, tt.want) {
				t.Errorf("error = %v, want %v", rcpt.Err, tt.want)
			}
		})
	}
}

func TestExecutePartialSpendKeepsRemainder(t *testing.T) {
	s := paperState(t)
	tx := Tx{
		Borrow: "X",
		Amount: bi(30_000_000),
		Steps: []SwapStep{
			// Spend only 27e6 of the 30e6 borrowed.
			{PairID: "p1", TokenIn: "X", AmountIn: bi(27_000_000)},
			{PairID: "p2", TokenIn: "Y"},
			{PairID: "p3", TokenIn: "Z"},
		},
	}
	rcpt := s.ExecuteTx(tx)
	if !rcpt.OK {
		t.Fatalf("tx reverted: %v", rcpt.Err)
	}
	// Profit should match the 27e6 plan: leftover 3e6 counts toward loan
	// repayment, net profit unchanged.
	got := rcpt.Profit["X"].Int64()
	if got < 16_500_000 || got > 17_100_000 {
		t.Errorf("profit = %d, want ≈ 16.8e6", got)
	}
}

func TestBlockAdvancesClockAndAppliesTxs(t *testing.T) {
	s := paperState(t)
	h0, t0 := s.Height(), s.Timestamp()

	good := Tx{Borrow: "X", Amount: bi(27_000_000), Steps: []SwapStep{
		{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
	}}
	bad := Tx{Borrow: "X", Amount: bi(1)}

	receipts := s.Block([]Tx{good, bad})
	if len(receipts) != 2 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	if !receipts[0].OK || receipts[1].OK {
		t.Errorf("receipt status = %v, %v; want ok, failed", receipts[0].OK, receipts[1].OK)
	}
	if receipts[0].Block != h0+1 {
		t.Errorf("tx block = %d, want %d", receipts[0].Block, h0+1)
	}
	if s.Height() != h0+1 {
		t.Errorf("height = %d, want %d", s.Height(), h0+1)
	}
	if s.Timestamp() != t0+DefaultBlockIntervalSeconds {
		t.Errorf("timestamp = %d, want +%d", s.Timestamp(), DefaultBlockIntervalSeconds)
	}
}

func TestSetBlockInterval(t *testing.T) {
	s := paperState(t)
	s.SetBlockInterval(12)
	t0 := s.Timestamp()
	s.Block(nil)
	if s.Timestamp() != t0+12 {
		t.Errorf("timestamp advanced by %d, want 12", s.Timestamp()-t0)
	}
	s.SetBlockInterval(0) // ignored
	t1 := s.Timestamp()
	s.Block(nil)
	if s.Timestamp() != t1+12 {
		t.Error("zero interval should be ignored")
	}
}

func TestSecondArbitrageLessProfitable(t *testing.T) {
	s := paperState(t)
	plan := func() Receipt {
		return s.ExecuteTx(Tx{Borrow: "X", Amount: bi(27_000_000), Steps: []SwapStep{
			{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
		}})
	}
	first := plan()
	if !first.OK {
		t.Fatalf("first tx reverted: %v", first.Err)
	}
	second := plan()
	if second.OK {
		// The same plan re-run after the pools moved must earn less (the
		// first execution consumed the opportunity).
		if second.Profit["X"].Cmp(first.Profit["X"]) >= 0 {
			t.Errorf("second run profit %s ≥ first %s", second.Profit["X"], first.Profit["X"])
		}
	}
}

func TestConcurrentExecution(t *testing.T) {
	s := paperState(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s.ExecuteTx(Tx{Borrow: "X", Amount: bi(100_000), Steps: []SwapStep{
					{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
				}})
			}
		}()
	}
	wg.Wait()
	r0, r1, err := s.Reserves("p1")
	if err != nil || r0.Sign() <= 0 || r1.Sign() <= 0 {
		t.Errorf("reserves after concurrency: %s, %s, %v", r0, r1, err)
	}
}

func TestDirectSwap(t *testing.T) {
	s := paperState(t)
	out, err := s.Swap("p1", "X", bi(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Sign() <= 0 {
		t.Errorf("swap output = %s", out)
	}
	r0, r1, err := s.Reserves("p1")
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cmp(bi(101_000_000)) != 0 {
		t.Errorf("reserve0 after direct swap = %s, want 101000000", r0)
	}
	wantR1 := new(big.Int).Sub(bi(200_000_000), out)
	if r1.Cmp(wantR1) != 0 {
		t.Errorf("reserve1 = %s, want %s", r1, wantR1)
	}
}

func TestDirectSwapErrors(t *testing.T) {
	s := paperState(t)
	if _, err := s.Swap("nope", "X", bi(1)); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("unknown pair error = %v", err)
	}
	if _, err := s.Swap("p1", "Q", bi(1)); !errors.Is(err, ErrBadTx) {
		t.Errorf("unknown token error = %v", err)
	}
	if _, err := s.Swap("p1", "X", bi(0)); !errors.Is(err, ErrBadTx) {
		t.Errorf("zero amount error = %v", err)
	}
	if _, err := s.Swap("p1", "X", nil); !errors.Is(err, ErrBadTx) {
		t.Errorf("nil amount error = %v", err)
	}
}

func TestOnBlockHook(t *testing.T) {
	s := paperState(t)
	var got []int64
	s.OnBlock(func(h int64) {
		// Callbacks run outside the state lock: reads must not deadlock.
		if s.Height() != h {
			t.Errorf("state height %d != notified %d", s.Height(), h)
		}
		got = append(got, h)
	})
	s.OnBlock(nil) // ignored

	s.Block(nil)
	s.Block(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("notified heights = %v, want [1 2]", got)
	}

	// ExecuteTx is not a block: no notification.
	s.ExecuteTx(Tx{Borrow: "X", Amount: bi(1), Steps: []SwapStep{{PairID: "p1", TokenIn: "X"}}})
	if len(got) != 2 {
		t.Errorf("ExecuteTx notified: %v", got)
	}
}

// AppendPools serves pools in ID order whatever the insertion order; a
// record's integers never change after the call (writes replace them);
// and a pool's revision moves exactly when its reserves are written —
// by a swap or a committed transaction, not by a reverted one.
func TestAppendPoolsRevisionsAndImmutableRecords(t *testing.T) {
	s := NewState(0)
	for _, id := range []string{"p3", "p1", "p2"} {
		if err := s.AddPool(id, "X", "Y", bi(1_000_000), bi(1_000_000), 30); err != nil {
			t.Fatal(err)
		}
	}
	before := s.AppendPools(nil)
	if len(before) != 3 || before[0].ID != "p1" || before[1].ID != "p2" || before[2].ID != "p3" {
		t.Fatalf("AppendPools order = %v", before)
	}
	held := [][2]string{}
	for _, r := range before {
		held = append(held, [2]string{r.Reserve0.String(), r.Reserve1.String()})
	}

	if _, err := s.Swap("p1", "X", bi(10_000)); err != nil {
		t.Fatal(err)
	}
	// Unprofitable round trip through p2: reverts, writes nothing.
	if r := s.ExecuteTx(Tx{Borrow: "X", Amount: bi(10_000), Steps: []SwapStep{
		{PairID: "p2", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"},
	}}); r.OK {
		t.Fatal("round trip through one pool committed")
	}
	// p1 now prices Y dearer than p3: X→Y on p3, Y→X on p1 commits.
	if r := s.ExecuteTx(Tx{Borrow: "X", Amount: bi(1_000), Steps: []SwapStep{
		{PairID: "p3", TokenIn: "X"}, {PairID: "p1", TokenIn: "Y"},
	}}); !r.OK {
		t.Fatalf("arbitrage reverted: %v", r.Err)
	}

	after := s.AppendPools(before[:0:0])
	for i, r := range before {
		if got := [2]string{r.Reserve0.String(), r.Reserve1.String()}; got != held[i] {
			t.Errorf("%s: handed-out reserves changed from %v to %v", r.ID, held[i], got)
		}
	}
	moved := map[string]bool{"p1": true, "p2": false, "p3": true}
	for i, r := range after {
		if got := r.Revision != before[i].Revision; got != moved[r.ID] {
			t.Errorf("%s: revision moved = %v, want %v", r.ID, got, moved[r.ID])
		}
		r0, r1, err := s.Reserves(r.ID)
		if err != nil || r0.Cmp(r.Reserve0) != 0 || r1.Cmp(r.Reserve1) != 0 {
			t.Errorf("%s: record reserves %s/%s, state %s/%s", r.ID, r.Reserve0, r.Reserve1, r0, r1)
		}
	}
}
