package experiments

import (
	"sort"

	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// clusterBytes splits a dissemination run's pair matrix by bandwidth class:
// the catalog's top half by profile bandwidth is "fast", the rest "slow"
// (ties broken by label so the split is canonical), pairs involving the
// control node are excluded (seeding is not peer reciprocity), and each
// peer-to-peer pair's bytes land in like (both fast or both slow) or cross.
// A like/cross ratio above 1 is the Legout clustering signature.
func clusterBytes(catalog []scenario.Peer, pairs []workload.PairBytes) (like, cross int64) {
	ranked := make([]scenario.Peer, len(catalog))
	copy(ranked, catalog)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Profile.Bandwidth != ranked[j].Profile.Bandwidth {
			return ranked[i].Profile.Bandwidth > ranked[j].Profile.Bandwidth
		}
		return ranked[i].Label < ranked[j].Label
	})
	fast := make(map[string]bool, len(ranked)/2)
	for i := 0; i < (len(ranked)+1)/2; i++ {
		fast[ranked[i].Label] = true
	}
	for _, p := range pairs {
		if p.From == "" {
			continue
		}
		if fast[p.From] == fast[p.To] {
			like += p.Bytes
		} else {
			cross += p.Bytes
		}
	}
	return like, cross
}
