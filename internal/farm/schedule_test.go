package farm_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/service"
)

// TestScheduleLPT pins the one dispatch order the farm and the service
// share. Plan.Order sorts shards by exact up-front cost (EstimatedIntents),
// largest first, ties in plan order. farm.Run feeds its pool in that order
// (the journal append order under one worker shows it), and
// Coordinator.Lease grants in it, a reclaimed shard going back to its place
// ahead of every cheaper one.
func TestScheduleLPT(t *testing.T) {
	spec := service.CampaignSpec{Seed: 1, Campaigns: "AB", Quick: 10}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	order := plan.Order()
	if len(order) != len(plan.Shards()) {
		t.Fatalf("order has %d shards, plan %d", len(order), len(plan.Shards()))
	}
	seen := make([]bool, len(order))
	ties := 0
	for i, idx := range order {
		if seen[idx] {
			t.Fatalf("shard %d appears twice in the order", idx)
		}
		seen[idx] = true
		if i == 0 {
			continue
		}
		prev := order[i-1]
		switch a, b := plan.EstimatedIntents(prev), plan.EstimatedIntents(idx); {
		case a < b:
			t.Fatalf("order[%d] = shard %d (%d intents) after shard %d (%d intents)", i, idx, b, prev, a)
		case a == b && prev > idx:
			t.Fatalf("tie at %d intents out of plan order: shard %d before %d", a, prev, idx)
		case a == b:
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no equal-cost shards in the plan; the tie rule goes untested")
	}

	// The in-process pool: under one worker, journal records land in
	// dispatch order.
	ckpt := filepath.Join(t.TempDir(), "order.ckpt")
	cfg := farm.Config{
		Seed:          1,
		Campaigns:     []core.Campaign{core.CampaignA, core.CampaignB},
		Packages:      testPackages,
		Gen:           testGen(),
		Sharding:      core.Sharding{Workers: 1, Checkpoint: ckpt},
		DisableTriage: true,
	}
	small, err := farm.NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := farm.Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var appended []int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		var rec struct{ Index int }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, rec.Index)
	}
	if !reflect.DeepEqual(appended, small.Order()) {
		t.Fatalf("Run dispatched %v, want plan order %v", appended, small.Order())
	}

	// The coordinator: lease the first three shards, keep the first and
	// third alive, and let the second expire. The next grant is the
	// reclaimed shard; the rest follow in order.
	var clock atomic.Int64
	clock.Store(time.Unix(1700000000, 0).UnixNano())
	coord, err := service.NewCoordinator(service.Options{DataDir: t.TempDir(), Clock: func() time.Time { return time.Unix(0, clock.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	var grants []service.LeaseGrant
	for {
		g, err := coord.Lease("w")
		if errors.Is(err, service.ErrNoWork) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
		if len(grants) == 3 {
			ttl := coord.LeaseTTL()
			clock.Add(int64(ttl / 2))
			for _, keep := range []service.LeaseGrant{grants[0], grants[2]} {
				if _, err := coord.Heartbeat(keep.LeaseID); err != nil {
					t.Fatal(err)
				}
			}
			clock.Add(int64(ttl/2 + time.Second))
		}
	}
	var granted []int
	for _, g := range grants {
		granted = append(granted, g.Shard)
	}
	want := append(append(append([]int{}, order[:3]...), order[1]), order[3:]...)
	if !reflect.DeepEqual(granted, want) {
		t.Fatalf("Lease granted %v, want %v", granted, want)
	}
}

// TestStatusBoardQueue drives the shard table as the queue Run and the
// coordinator drain: Next follows Plan.Order (ties included), resumed rows
// are never handed out, a requeued shard regains its LPT place, the last
// Done reports completion exactly once, and a drained board has no work.
func TestStatusBoardQueue(t *testing.T) {
	plan, err := service.CampaignSpec{Seed: 1, Campaigns: "AB", Quick: 10}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	order := plan.Order()
	result := func(idx int) *farm.ShardResult { return &farm.ShardResult{Key: plan.Shards()[idx], Sent: 1} }
	without := func(drop ...int) []int {
		var out []int
		for _, idx := range order {
			if !slices.Contains(drop, idx) {
				out = append(out, idx)
			}
		}
		return out
	}
	cases := []struct {
		name    string
		resumed []int
		// requeueAt > 0 takes that many shards, requeues the second-taken
		// one, then drains.
		requeueAt int
		want      []int
	}{
		{name: "plan order", want: order},
		{name: "resumed skipped", resumed: []int{order[0], order[5]}, want: without(order[0], order[5])},
		{name: "requeue regains place", requeueAt: 3,
			want: append(append(append([]int{}, order[:3]...), order[1]), order[3:]...)},
		{name: "all resumed", resumed: order, want: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			board := farm.NewStatusBoard()
			board.Track(plan, 2)
			for _, idx := range tc.resumed {
				board.Resume(idx, result(idx))
			}
			var taken []int
			completions := 0
			for {
				idx, ok := board.Next(0)
				if !ok {
					break
				}
				taken = append(taken, idx)
				if len(taken) == tc.requeueAt {
					board.Requeue(taken[1])
					continue
				}
				if len(taken) < tc.requeueAt {
					continue
				}
				if board.Done(idx, result(idx), time.Millisecond, "test") {
					completions++
				}
			}
			if tc.requeueAt > 0 {
				// The two shards still running from before the requeue.
				for _, idx := range []int{taken[0], taken[2]} {
					if board.Done(idx, result(idx), time.Millisecond, "test") {
						completions++
					}
				}
			}
			if !slices.Equal(taken, tc.want) {
				t.Fatalf("Next handed out %v, want %v", taken, tc.want)
			}
			if len(taken) > 0 && completions != 1 {
				t.Fatalf("completion reported %d times, want once", completions)
			}
			if idx, ok := board.Next(0); ok {
				t.Fatalf("drained board handed out shard %d", idx)
			}
			if idx := order[len(order)-1]; board.Done(idx, result(idx), time.Millisecond, "test") {
				t.Fatal("a repeated Done reported completion again")
			}
			s := board.Status()
			if s.Finished() != s.Total || s.Resumed != len(tc.resumed) || s.IntentsTotal != s.Total {
				t.Fatalf("drained board: finished %d of %d, resumed %d, intents %d", s.Finished(), s.Total, s.Resumed, s.IntentsTotal)
			}
			results := board.TakeResults()
			for idx, sr := range results {
				if sr == nil || sr.Key != plan.Shards()[idx] {
					t.Fatalf("result slot %d holds %v", idx, sr)
				}
			}
			if slices.ContainsFunc(board.TakeResults(), func(sr *farm.ShardResult) bool { return sr != nil }) {
				t.Fatal("TakeResults left results on the board")
			}
		})
	}
}
