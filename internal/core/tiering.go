package core

import (
	"github.com/datacron-project/datacron/internal/store"
)

// MaintainStore applies the tier policy to the sharded store — sealing
// oversized or aged heads into immutable segments and dropping sealed
// segments outside the retention window. The pass runs under ing's
// barrier, the same quiescence point snapshots use, so every wire line is
// either fully reflected in the tier layout or not at all (and no seal can
// interleave with a half-applied line). force seals every non-empty head
// regardless of thresholds (the POST /seal admin action).
func (p *Pipeline) MaintainStore(ing *Ingestor, pol store.TierPolicy, force bool) store.MaintainStats {
	release := ing.Barrier()
	defer release()
	return p.Store.Maintain(pol, force)
}
