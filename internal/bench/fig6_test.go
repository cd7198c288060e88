package bench

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"nectar/internal/model"
	"nectar/internal/obs"
)

// TestFig6Attribution pins Figure 6 to its one attribution. Sequentially
// and on two shards, bench.Fig6's stages must equal Fig6Attribute over an
// independent typed-event recording of the same exchange: one sink shared
// by every shard kernel, whose arrival order is merged by
// obs.CanonicalTrace. The 11 stages must tile the total, and the buckets
// must round to the 18/45/37 split EXPERIMENTS.md quotes.
func TestFig6Attribution(t *testing.T) {
	wantUS := []float64{14.0, 25.0, 4.0, 23.0, 17.0, 0.7, 4.7, 35.5, 8.1, 15.0, 10.5}
	for _, shards := range []int{1, 2} {
		withShards(t, shards, func() {
			got, err := Fig6(nil)
			if err != nil {
				t.Fatal(err)
			}

			cost := model.Default1990()
			cl, a, b := newCluster(cost, false)
			var mu sync.Mutex
			var events []obs.Event
			for _, k := range cl.Kernels() {
				obs.Ensure(k).SetSink(obs.SinkFunc(func(e obs.Event) {
					mu.Lock()
					events = append(events, e)
					mu.Unlock()
				}))
			}
			an, _, err := fig6Exchange(cl, a, b, cost, "datagram", 4)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Fig6Attribute("datagram", obs.CanonicalTrace(events), an)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Stages, want.Stages) || got.TotalUS != want.TotalUS {
				t.Errorf("shards=%d: Fig6 differs from the attribution of a separate recording:\nFig6:\n%s\nrecording:\n%s",
					shards, got.Format(), want.Format())
			}

			var sum float64
			for i, s := range got.Stages {
				sum += s.US
				if math.Abs(s.US-wantUS[i]) > 0.05 {
					t.Errorf("shards=%d: stage %q = %.2f us, want %.1f", shards, s.Name, s.US, wantUS[i])
				}
			}
			if math.Abs(sum-got.TotalUS) > 1e-9 {
				t.Errorf("shards=%d: stages sum to %.3f us, total %.3f us", shards, sum, got.TotalUS)
			}
			buckets := [3]float64{math.Round(got.HostPct), math.Round(got.InterfacePct), math.Round(got.CABPct)}
			if buckets != [3]float64{18, 45, 37} {
				t.Errorf("shards=%d: buckets host/interface/CAB = %v%%, want 18/45/37", shards, buckets)
			}
		})
	}
}
