package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gossip"
	"repro/internal/kripke"
)

// goldenBlockMaps pins the Minimize block map of every served system
// (muddy:8, attack, r2d2 and each scenario regime at seed 1) plus one
// gossip universe: a Minimize of the system's epistemic model, then a
// Minimize after a restriction (keep every world whose index is not 2 mod
// 3). Each line holds the world count, the quotient size and an FNV-64a
// hash of the block map. Session restore compares persisted block maps, so
// any drift here would also orphan every quotiented session on disk. The
// restricted lines keep the label "seeded": they were recorded from a
// Minimize re-refined from the renamed pre-restriction blocks, and the
// plain Restrict+Minimize must reproduce them byte for byte.
const goldenBlockMaps = `muddy:8 scratch worlds=256 blocks=256 fnv=8084b7f6c938af25
muddy:8 seeded worlds=171 blocks=171 fnv=e6ec47eb7ef8a7fe
attack scratch worlds=66 blocks=38 fnv=7b9b18965b93dca4
attack seeded worlds=44 blocks=29 fnv=5fbc2ec698a956bd
r2d2 scratch worlds=120 blocks=31 fnv=d4610318f40d7451
r2d2 seeded worlds=80 blocks=3 fnv=b4d3a1898d4fa695
scenario:sync-fixed scratch worlds=90 blocks=14 fnv=c9731640d78e7502
scenario:sync-fixed seeded worlds=60 blocks=12 fnv=836ffcf9ebaf2dd4
scenario:bounded scratch worlds=525 blocks=143 fnv=051bc956d50b9891
scenario:bounded seeded worlds=350 blocks=95 fnv=e1512a15c1a1a921
scenario:async scratch worlds=900 blocks=491 fnv=d8e10c055c17725e
scenario:async seeded worlds=600 blocks=329 fnv=80c76a4d67c4eebb
scenario:drift-within scratch worlds=720 blocks=631 fnv=029b7ae5e2ac9f7e
scenario:drift-within seeded worlds=480 blocks=429 fnv=41663d7726978794
scenario:drift-beyond scratch worlds=720 blocks=698 fnv=8f919fee732257c2
scenario:drift-beyond seeded worlds=480 blocks=470 fnv=2f937325eaa181d9
scenario:lossy scratch worlds=450 blocks=121 fnv=9c26173ce532ebf4
scenario:lossy seeded worlds=300 blocks=81 fnv=59b9963a00957764
scenario:crash scratch worlds=1005 blocks=105 fnv=4075a678bc7db528
scenario:crash seeded worlds=670 blocks=81 fnv=bff41200b89a3390
scenario:dup scratch worlds=855 blocks=219 fnv=8ceb51cf6a645559
scenario:dup seeded worlds=570 blocks=146 fnv=d60b424e4f2ed00a
gossip:any-4-4 scratch worlds=512 blocks=457 fnv=d7f6e1ab56bccf05
gossip:any-4-4 seeded worlds=342 blocks=295 fnv=b8a81250bc78e1e3
`

// blockMapHash is FNV-64a over the block map's entries as little-endian
// uint32s.
func blockMapHash(block []int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range block {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func goldenLine(name, path string, m *kripke.Model, q *kripke.Model, block []int) string {
	return fmt.Sprintf("%s %s worlds=%d blocks=%d fnv=%016x\n", name, path, m.NumWorlds(), q.NumWorlds(), blockMapHash(block))
}

func TestMinimizeBlockMapsGolden(t *testing.T) {
	models := []struct {
		name string
		m    *kripke.Model
	}{}
	specs := []string{"muddy:8", "attack", "r2d2"}
	for _, si := range Systems(1) {
		if strings.HasPrefix(si.Spec, "scenario:") {
			specs = append(specs, si.Spec)
		}
	}
	for _, spec := range specs {
		ld, err := loadSystem(spec, 1)
		if err != nil {
			t.Fatalf("load %s: %v", spec, err)
		}
		models = append(models, struct {
			name string
			m    *kripke.Model
		}{spec, ld.view.Model()})
	}
	u := gossip.BuildUniverse(gossip.Any, 4, 4, 4096, 512, 1)
	models = append(models, struct {
		name string
		m    *kripke.Model
	}{"gossip:any-4-4", u.Model().M})

	var got strings.Builder
	for _, e := range models {
		q, block := e.m.Minimize()
		got.WriteString(goldenLine(e.name, "scratch", e.m, q, block))
		keep := bitset.New(e.m.NumWorlds())
		for w := 0; w < e.m.NumWorlds(); w++ {
			if w%3 != 2 {
				keep.Add(w)
			}
		}
		sub := e.m.Restrict(keep)
		sq, sblock := sub.Minimize()
		got.WriteString(goldenLine(e.name, "seeded", sub, sq, sblock))
	}
	if got.String() != goldenBlockMaps {
		t.Fatalf("Minimize block maps drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.String(), goldenBlockMaps)
	}
}
