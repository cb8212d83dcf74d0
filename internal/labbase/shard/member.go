package shard

import (
	"fmt"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// Member is one shard of a distributed LabBase cluster: a plain labbase.DB
// over a shard-tagging OID mapper, plus the topology identity
// (index/count) it advertises to routers through the wire handshake
// (OpShardInfo). A labbase-server started with -shard k/n serves a Member,
// and a shard.Router fronts N such servers; Open runs the same members
// behind servers inside one process.
//
// The Member trusts the router for routing but verifies what it cheaply
// can: CreateMaterial re-hashes the name and rejects a misroute with an
// ErrCrossShard-class error (a silent misroute there would mint the
// material on the wrong shard, corrupting the name→shard contract), and
// every OID-addressed operation rejects OIDs tagged for another shard
// through the mapper's untag check.
type Member struct {
	*labbase.DB
	index int
	count int
}

var _ labbase.Store = (*Member)(nil)

// OpenMember opens shard index of count over one storage manager, taking
// ownership of it: on error the manager is closed.
func OpenMember(sm storage.Manager, index, count int, opts labbase.Options) (*Member, error) {
	if count < 1 || count > MaxShards || index < 0 || index >= count {
		sm.Close()
		return nil, fmt.Errorf("shard: member %d/%d outside shard space [0, %d)", index, count, MaxShards)
	}
	inner, err := labbase.Open(&mapper{inner: sm, shard: index}, opts)
	if err != nil {
		sm.Close()
		return nil, fmt.Errorf("shard %d: %w", index, err)
	}
	return &Member{DB: inner, index: index, count: count}, nil
}

// ShardInfo reports the member's topology identity; the wire server
// forwards it in the OpShardInfo handshake.
func (m *Member) ShardInfo() (index, count int) { return m.index, m.count }

// CreateMaterial rejects names whose hash routes to a different shard
// before creating anything — the one misroute the OID mapper cannot catch,
// because creation mints a fresh OID on whichever shard executes it.
func (m *Member) CreateMaterial(class, name, state string, validTime int64) (storage.OID, error) {
	if k := ShardFor(name, m.count); k != m.index {
		return storage.NilOID, fmt.Errorf("%w: material %q routes to shard %d, not this server's shard %d",
			ErrCrossShard, name, k, m.index)
	}
	return m.DB.CreateMaterial(class, name, state, validTime)
}
