package mediumgrain_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_parts.txt from the current code")

const goldenPath = "testdata/golden_parts.txt"

// goldenMode is one engine configuration of the golden table.
type goldenMode struct {
	name   string
	cfg    mediumgrain.PartitionerConfig
	refine bool
}

func goldenModes() []goldenMode {
	exact := mediumgrain.MondriaanLikeConfig()
	exact.ExactFM = true
	parFM := mediumgrain.MondriaanLikeConfig()
	parFM.ParallelFM = true
	return []goldenMode{
		{name: "default", cfg: mediumgrain.MondriaanLikeConfig()},
		{name: "exactfm", cfg: exact},
		{name: "parallelfm", cfg: parFM},
		{name: "alt", cfg: mediumgrain.AltConfig()},
		{name: "refine", cfg: mediumgrain.MondriaanLikeConfig(), refine: true},
	}
}

// partsDigest is the FNV-64a hash of parts, each entry written as a
// little-endian uint32.
func partsDigest(parts []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenTable runs every golden grid point and returns its lines
// ("matrix method mode workers p digest volume"), in grid order.
func goldenTable(t *testing.T) []string {
	t.Helper()
	type instance struct {
		name string
		a    *mediumgrain.Matrix
	}
	var mats []instance
	all := corpus.Build(corpus.DefaultOptions())
	for _, name := range []string{"powerlaw-3", "dirpl-4", "bip-tall"} {
		in, err := corpus.Find(all, name)
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, instance{name, in.A})
	}
	// 60×60 grid: enough vertices for three or more coarsening levels
	// under every model.
	mats = append(mats, instance{"lap2d-60", gen.Laplacian2D(60, 60)})

	methods := []struct {
		name string
		m    mediumgrain.Method
	}{
		{"MG", mediumgrain.MethodMediumGrain},
		{"FG", mediumgrain.MethodFineGrain},
		{"LB", mediumgrain.MethodLocalBest},
	}
	var lines []string
	for _, mode := range goldenModes() {
		for _, workers := range []int{0, 1, 4} {
			eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: workers, Partitioner: mode.cfg})
			for _, in := range mats {
				for _, m := range methods {
					for _, p := range []int{2, 8} {
						res, err := eng.Partition(context.Background(), mediumgrain.Request{
							Matrix: in.a, P: p, Method: m.m, Seed: 11, Refine: mode.refine,
						})
						if err != nil {
							t.Fatalf("%s %s %s workers=%d p=%d: %v", in.name, m.name, mode.name, workers, p, err)
						}
						lines = append(lines, fmt.Sprintf("%s %s %s %d %d %016x %d",
							in.name, m.name, mode.name, workers, p, partsDigest(res.Parts), res.Volume))
					}
				}
			}
		}
	}
	return lines
}

// TestGoldenPartsDigests pins the exact partitions of a fixed grid —
// corpus matrices plus a 60×60 Laplacian, × MG/FG/LB × every engine
// mode × Workers {0, 1, 4} × p ∈ {2, 8} — to a committed digest table.
// Layout and scheduling changes inside the engine must leave every
// per-seed result bit-identical; the pool-size self-consistency tests
// cannot see a drift that moves every pool size alike, this table can.
// Regenerate only for an intended result change:
//
//	go test -run TestGoldenPartsDigests -update-golden .
func TestGoldenPartsDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid runs 360 partitions")
	}
	got := goldenTable(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden table has %d rows, grid produced %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden rows differ", bad, len(got))
	}
}
