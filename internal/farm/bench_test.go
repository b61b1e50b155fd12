package farm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
)

// The benchmark pair quantifies the farm's reason to exist: the same
// campaign, serial versus eight workers. Triage is disabled so the numbers
// measure shard execution and merge, not minimization.
var benchPackages = []string{
	"com.heartwatch.wear", "com.strava.wear", "com.whatsapp.wear",
	"com.endomondo.wear", "com.evernote.wear", "com.accuweather.wear",
	"com.citymapper.wear", "com.duolingo.wear",
}

func runBench(b *testing.B, sharding core.Sharding) {
	b.Helper()
	cfg := farm.Config{
		Seed:          1,
		Packages:      benchPackages,
		Gen:           experiments.QuickGen(4),
		Sharding:      sharding,
		DisableTriage: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := farm.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sent == 0 {
			b.Fatal("benchmark campaign sent nothing")
		}
		b.ReportMetric(float64(res.Sent), "intents/op")
	}
}

func BenchmarkCampaign_Serial(b *testing.B) { runBench(b, core.Sharding{Workers: 1}) }

func BenchmarkCampaign_Farm8(b *testing.B) { runBench(b, core.Sharding{Workers: 8}) }

// BenchmarkFarm8Persist is the eight-worker run scripts/benchgate holds
// under its time and allocation ceilings: one hot device per worker, reset
// in place between shards.
func BenchmarkFarm8Persist(b *testing.B) { runBench(b, core.Sharding{Workers: 8}) }
