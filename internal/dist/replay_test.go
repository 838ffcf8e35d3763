package dist

import (
	"fmt"
	"strings"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/sm"
)

// paxosShard builds shard index of a two-shard exhaustive paxos (3 nodes)
// search, with the replay workspace a round start would give it.
func paxosShard(tb testing.TB, conn Conn, index int) *shard {
	tb.Helper()
	g, cfg, err := scenario.InitialState("paxos", scenario.Options{Nodes: 3})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Mode = mc.Exhaustive
	sh, err := newShard(conn, ShardConfig{Index: index, Shards: 2, Search: cfg, Root: g})
	if err != nil {
		tb.Fatal(err)
	}
	sh.res = []*mc.Expander{sh.search.NewExpander()}
	return sh
}

// descWalk follows a walk from the shard's root — at step i the first
// applicable event at or after position choices[i] (mod the enabled count)
// — and returns its descriptor path.
func descWalk(tb testing.TB, sh *shard, choices ...int) []EventDesc {
	tb.Helper()
	x := sh.search.NewExpander()
	enc := sm.NewEncoder()
	g := sh.cfg.Root
	var path []EventDesc
	for step, c := range choices {
		var evs []sm.Event
		x.Events(g, func(ev sm.Event) { evs = append(evs, ev) })
		var next *mc.GState
		for j := 0; j < len(evs) && next == nil; j++ {
			ev := evs[(c+j)%len(evs)]
			if next = sh.search.ApplyEvent(g, ev); next != nil {
				path = append(path, DescribeEvent(ev, enc))
			}
		}
		if next == nil {
			tb.Fatalf("walk step %d: no applicable event", step)
		}
		g = next
	}
	return path
}

// TestReplayPrefixCache: a replay resuming from the cached common prefix
// builds the state a from-root replay builds, re-executes exactly the
// steps past that prefix, reports failures at their absolute step index,
// and leaves nothing behind from a failed replay or an ended round.
func TestReplayPrefixCache(t *testing.T) {
	probe := paxosShard(t, nil, 1)
	base := descWalk(t, probe, 0, 1, 2, 0, 1, 2, 1)
	sibling := descWalk(t, probe, 0, 1, 2, 0, 1, 2, 2)
	if sibling[len(sibling)-1] == base[len(base)-1] {
		t.Fatal("sibling walk did not diverge at its last step")
	}
	diverged := descWalk(t, probe, 1, 1, 2, 0, 1)
	if diverged[0] == base[0] {
		t.Fatal("diverged walk shares its first step")
	}
	bad := append([]EventDesc(nil), base...)
	bad[3].Name = "no-such-" + bad[3].Name

	cases := []struct {
		name string
		prev [][]EventDesc // replayed first, in order
		// badAt is the step index the last prev replay must fail at (-1: all succeed).
		badAt    int
		endRound bool // end the round between prev and cur
		cur      []EventDesc
		executed int // steps cur must re-execute
	}{
		{name: "cold", cur: base, badAt: -1, executed: len(base)},
		{name: "identical", prev: [][]EventDesc{base}, badAt: -1, cur: base, executed: 0},
		{name: "one-step extension", prev: [][]EventDesc{base}, badAt: -1, cur: descWalk(t, probe, 0, 1, 2, 0, 1, 2, 1, 0), executed: 1},
		{name: "sibling", prev: [][]EventDesc{base}, badAt: -1, cur: sibling, executed: 1},
		{name: "divergence at step 0", prev: [][]EventDesc{base}, badAt: -1, cur: diverged, executed: len(diverged)},
		{name: "shorter", prev: [][]EventDesc{base}, badAt: -1, cur: base[:4], executed: 0},
		{name: "bad descriptor then valid", prev: [][]EventDesc{base, bad}, badAt: 3, cur: base, executed: len(base)},
		{name: "bad descriptor then sibling", prev: [][]EventDesc{base, bad}, badAt: 3, cur: sibling, executed: len(sibling)},
		{name: "round end", prev: [][]EventDesc{base}, badAt: -1, endRound: true, cur: base, executed: len(base)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := paxosShard(t, nil, 1)
			for i, p := range tc.prev {
				_, err := sh.replay(p)
				if i < len(tc.prev)-1 || tc.badAt < 0 {
					if err != nil {
						t.Fatalf("replay %d: %v", i, err)
					}
					continue
				}
				if err == nil {
					t.Fatalf("replay of a bad descriptor at step %d succeeded", tc.badAt)
				}
				if want := fmt.Sprintf("replay step %d:", tc.badAt); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name absolute %q", err, want)
				}
				if len(sh.replayed.path) != 0 || len(sh.replayed.states) != 0 {
					t.Fatalf("failed replay left %d cached steps", len(sh.replayed.states))
				}
			}
			if tc.endRound {
				sh.endRound()
				if len(sh.replayed.states) != 0 {
					t.Fatalf("round end left %d cached states", len(sh.replayed.states))
				}
			}
			before := append([]*mc.GState(nil), sh.replayed.states...)
			g, err := sh.replay(tc.cur)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := replayDescs(sh.search, sh.search.NewExpander(), sm.NewEncoder(), sh.cfg.Root, tc.cur, false)
			if err != nil {
				t.Fatal(err)
			}
			if g.Hash() != want.Hash() {
				t.Fatalf("cached replay hash %#x, from-root replay %#x", g.Hash(), want.Hash())
			}
			executed := 0
			for i, st := range sh.replayed.states {
				if i >= len(before) || st != before[i] {
					executed++
				}
			}
			if executed != tc.executed {
				t.Fatalf("re-executed %d steps, want %d", executed, tc.executed)
			}
			if len(sh.replayed.path) != len(sh.replayed.states) {
				t.Fatalf("cache holds %d descriptors for %d states", len(sh.replayed.path), len(sh.replayed.states))
			}
		})
	}
}

// captureConn is a shard-side connection that records every batch the
// shard sends and delivers nothing, so a shard drained over it forwards a
// deterministic batch sequence.
type captureConn struct{ batches []Batch }

func (c *captureConn) Send(m Msg) error {
	if b, ok := m.(Batch); ok {
		c.batches = append(c.batches, b)
	}
	return nil
}
func (c *captureConn) Recv() (Msg, error)          { return nil, ErrClosed }
func (c *captureConn) TryRecv() (Msg, bool, error) { return nil, false, nil }
func (c *captureConn) Close() error                { return nil }

// recordForwards returns the batch sequence shard 0 of a two-shard
// exhaustive paxos (3 nodes, depth 7) search forwards to shard 1 before it
// hears from its peer, and the same states in wire form, in order.
func recordForwards(tb testing.TB) ([]Batch, []ForwardState) {
	tb.Helper()
	conn := &captureConn{}
	sender := paxosShard(tb, conn, 0)
	if err := sender.startRound(RoundStart{Budget: mc.Budget{Depth: 7, Workers: 1}}); err != nil {
		tb.Fatal(err)
	}
	var pending Msg
	if err := sender.drainAndIdle(&pending); err != nil {
		tb.Fatal(err)
	}
	enc := sm.NewEncoder()
	var fwd []ForwardState
	for _, batch := range conn.batches {
		for _, fs := range batch.States {
			fwd = append(fwd, ForwardState{Hash: fs.Hash, Depth: fs.Depth, Path: fs.node.descPath(enc)})
		}
	}
	if len(fwd) == 0 {
		tb.Fatal("sender forwarded nothing")
	}
	return conn.batches, fwd
}

// BenchmarkShardReplay measures the receiver's cost per forwarded state:
// one op replays one wire-form path of recordForwards' sequence, in order.
// "prefix" is the shard's replay, resuming from the previous path's common
// prefix; "from-root" re-executes every path from the root.
func BenchmarkShardReplay(b *testing.B) {
	_, fwd := recordForwards(b)
	recv := paxosShard(b, nil, 1)
	run := func(b *testing.B, replay func(path []EventDesc) (*mc.GState, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(fwd)
			if k == 0 {
				recv.replayed.drop()
			}
			g, err := replay(fwd[k].Path)
			if err != nil {
				b.Fatal(err)
			}
			if g.Hash() != fwd[k].Hash {
				b.Fatalf("replayed hash %#x, forwarded %#x", g.Hash(), fwd[k].Hash)
			}
		}
	}
	b.Run("prefix", func(b *testing.B) { run(b, recv.replay) })
	b.Run("from-root", func(b *testing.B) {
		run(b, func(path []EventDesc) (*mc.GState, error) {
			_, g, err := replayDescs(recv.search, recv.res[0], recv.scratch, recv.cfg.Root, path, false)
			return g, err
		})
	})
}

// TestShardReplayAllocBound gates BenchmarkShardReplay/prefix: the
// receiver's allocations per forwarded path, averaged over one full pass
// of the recorded sequence from an empty prefix cache.
func TestShardReplayAllocBound(t *testing.T) {
	_, fwd := recordForwards(t)
	recv := paxosShard(t, nil, 1)
	pass := func() {
		recv.replayed.drop()
		for _, fs := range fwd {
			if _, err := recv.replay(fs.Path); err != nil {
				t.Fatal(err)
			}
		}
	}
	bound := 34.0 // measured 33.19 (36.73 under -race)
	if raceEnabled {
		bound = 37
	}
	perPath := testing.AllocsPerRun(3, pass) / float64(len(fwd))
	t.Logf("%.2f allocs per forwarded path (%d paths)", perPath, len(fwd))
	if perPath > bound {
		t.Fatalf("prefix replay allocates %.2f per forwarded path, want <= %.0f", perPath, bound)
	}
}
