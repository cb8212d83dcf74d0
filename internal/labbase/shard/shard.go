package shard

import (
	"fmt"
	"hash/fnv"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// ErrCrossShard is returned when a step or material set references
// materials living on different shards. Sharded LabBase transactions are
// single-partition (as in d-Chiron): everything one step touches — its
// materials and the members of its Set — must hash to the same shard.
//
// The sentinel itself lives in labbase (see labbase.ErrCrossShard for why);
// this is the same error value, so errors.Is matches either name.
var ErrCrossShard = labbase.ErrCrossShard

// ShardFor routes a material name to a shard with FNV-1a (32-bit). The
// routing is part of the on-disk contract: the same name must hash to the
// same shard across restarts.
func ShardFor(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// Open starts an N-shard cluster inside this process, one storage manager
// per shard, and returns a Router over it. Each manager becomes a Member
// (OpenMember, with the given labbase options) behind a wire.Server, and
// the router reaches those servers over an in-memory network instead of
// TCP: the frames, the connection pools and the merge are the ones a
// router over labbase-server processes uses. The health monitor is off,
// since an in-process member cannot go away while its router is open.
//
// Open takes ownership of the managers: on error every manager is closed,
// and Close on the router shuts the servers down and closes the members. A
// 1-shard cluster is byte-identical to a plain labbase.DB over the same
// manager (shard 0's OID encoding is the identity, and the implicit-schema
// broadcast is skipped).
func Open(managers []storage.Manager, opts labbase.Options) (*Router, error) {
	n := len(managers)
	if n < 1 || n > MaxShards {
		for _, sm := range managers {
			sm.Close()
		}
		return nil, fmt.Errorf("shard: shard count %d outside [1, %d]", n, MaxShards)
	}
	c := &cluster{}
	topo := Topology{Shards: make([]string, n)}
	for k, sm := range managers {
		m, err := OpenMember(sm, k, n, opts)
		if err != nil {
			for _, rest := range managers[k+1:] {
				rest.Close()
			}
			c.close()
			return nil, err
		}
		topo.Shards[k] = c.serve(m)
	}
	r, err := openRouter(topo, RouterOptions{HealthInterval: -1}, c.dial)
	if err != nil {
		c.close()
		return nil, err
	}
	r.cluster = c
	return r, nil
}
