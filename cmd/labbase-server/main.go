// Command labbase-server runs a LabBase data server: one process owning a
// storage manager, serving workflow tracking and history queries to network
// clients over the wire protocol.
//
// Usage:
//
//	labbase-server -addr :7047 -store texas+tc -path /var/lab/lab.db
//	labbase-server -addr :7047 -store ostore-mm          # volatile
//	labbase-server ... -rules site.lbq                   # deductive views
//	labbase-server ... -shards 4                         # hash-partitioned
//	labbase-server ... -shard 1/4                        # cluster member
//
// -shards N partitions inside one process; -shard k/n instead makes this
// process shard k of an n-server cluster fronted by a shard.Router (each
// server owns one store and advertises its identity through the OpShardInfo
// handshake, so a router with a different topology refuses to use it).
// -addrfile writes the bound listen address (useful with -addr :0) so
// launchers can collect a topology without parsing logs.
//
// Replication (DESIGN §8): -ship addr streams every commit's redo record
// to a warm standby before the commit is acknowledged; -standby runs this
// process as that standby — it applies shipped records to its own media
// until an OpPromote arrives, then reopens the media as a real store and
// serves normally on the same address. -ckpt bounds recovery replay
// (ostore redo-log checkpoints, texas snapshots, standby journal
// checkpoints) and -restore lets a torn texas store come back from its
// last snapshot instead of refusing to open.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/repl"
	"labflow/internal/storage/texas"
	"labflow/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7047", "listen address")
		storeName = flag.String("store", "texas+tc", "ostore | texas | texas+tc | ostore-mm | texas-mm")
		path      = flag.String("path", "labbase.db", "database file (persistent stores)")
		pool      = flag.Int("pool", 512, "ostore buffer-pool pages")
		resident  = flag.Int("resident", 0, "texas resident-page bound (0 = unbounded)")
		rules     = flag.String("rules", "", "file of deductive rules to consult at start")
		shards    = flag.Int("shards", 1, "hash-partitioned shard count (each shard gets its own store)")
		member    = flag.String("shard", "", "serve as cluster member k of n (\"k/n\"); excludes -shards")
		addrfile  = flag.String("addrfile", "", "write the bound listen address to this file")
		standby   = flag.Bool("standby", false, "serve as a warm standby: apply shipped redo records to -path until promoted, then reopen and serve normally")
		stbySync  = flag.Bool("standby-sync", false, "fsync the standby journal before acking each shipped record (power-loss durability; default covers process crashes only)")
		ship      = flag.String("ship", "", "standby address to ship every commit's redo record to (persistent single-store only)")
		ckpt      = flag.Int("ckpt", 8, "checkpoint interval in commits: ostore redo-log checkpoints, texas snapshots, standby journal checkpoints")
		restore   = flag.Bool("restore", false, "let a torn texas store open from its last snapshot, discarding commits past it")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("labbase-server: listen: %v", err)
	}
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("labbase-server: addrfile: %v", err)
		}
	}

	if *standby {
		promoted, err := serveStandby(ln, *path, *ckpt, *stbySync)
		if err != nil {
			log.Fatalf("labbase-server: standby: %v", err)
		}
		if !promoted {
			return
		}
		// Promotion finalized the media and closed the listener; reopen
		// both — same port, now fronting a real store over the standby's
		// files. The brief dial-fail window is covered by the router's
		// health probes.
		bound := ln.Addr().String()
		ln, err = net.Listen("tcp", bound)
		if err != nil {
			log.Fatalf("labbase-server: relisten after promote: %v", err)
		}
		log.Printf("labbase-server: promoted, reopening %s", *path)
	}

	db, name, err := openDB(*storeName, *path, *pool, *resident, *shards, *member, *ckpt, *restore, *ship)
	if err != nil {
		log.Fatalf("labbase-server: %v", err)
	}
	srv := wire.NewServer(db)

	if *rules != "" {
		src, err := os.ReadFile(*rules)
		if err != nil {
			log.Fatalf("labbase-server: rules: %v", err)
		}
		if err := srv.Bridge().Engine().Consult(string(src)); err != nil {
			log.Fatalf("labbase-server: consult rules: %v", err)
		}
		log.Printf("consulted rules from %s", *rules)
	}

	log.Printf("labbase-server: %s store, listening on %s", name, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("labbase-server: shutting down")
		ln.Close()
		srv.Shutdown()
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatalf("labbase-server: serve: %v", err)
	}
	if err := db.Close(); err != nil {
		log.Fatalf("labbase-server: close: %v", err)
	}
}

// serveStandby runs the warm-standby phase: a StandbyServer over path's
// media applies shipped records until promotion or shutdown. It returns
// whether the standby was promoted (the caller then reopens the media as a
// real store on the same address).
func serveStandby(ln net.Listener, path string, every int, sync bool) (bool, error) {
	st, err := repl.OpenFileStandby(path, every)
	if err != nil {
		return false, err
	}
	st.SetSync(sync)
	ss := wire.NewStandbyServer(st)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("labbase-server: standby shutting down")
		ln.Close()
		ss.Shutdown()
	}()
	log.Printf("labbase-server: warm standby for %s, listening on %s", path, ln.Addr())
	if err := ss.Serve(ln); err != nil {
		st.Close()
		return false, err
	}
	signal.Stop(sig)
	if !ss.Promoted() {
		return false, st.Close()
	}
	return true, nil
}

// openDB opens the store (or, with -shards N > 1, N stores — persistent
// paths get a per-shard suffix) behind the labbase.Store facade. A
// non-empty member spec ("k/n") instead opens one cluster shard whose OIDs
// carry shard tag k and whose OpShardInfo handshake advertises k of n.
func openDB(name, path string, pool, resident, shards int, member string, ckpt int, restore bool, ship string) (labbase.Store, string, error) {
	if shards < 1 {
		return nil, "", fmt.Errorf("-shards must be at least 1")
	}
	if ship != "" && shards != 1 {
		return nil, "", fmt.Errorf("-ship requires a single store (-shards 1); run a cluster member per shard instead")
	}
	if member != "" {
		if shards != 1 {
			return nil, "", fmt.Errorf("-shard and -shards are mutually exclusive (a cluster member is one shard; in-process partitioning belongs on a standalone server)")
		}
		index, count, err := parseMember(member)
		if err != nil {
			return nil, "", err
		}
		sm, err := openStore(name, path, pool, resident, ckpt, restore, ship)
		if err != nil {
			return nil, "", err
		}
		db, err := shard.OpenMember(sm, index, count, labbase.DefaultOptions())
		if err != nil {
			return nil, "", fmt.Errorf("open database: %w", err)
		}
		storeName, _ := db.StoreStats()
		return db, fmt.Sprintf("%s (shard %d/%d)", storeName, index, count), nil
	}
	if shards == 1 {
		sm, err := openStore(name, path, pool, resident, ckpt, restore, ship)
		if err != nil {
			return nil, "", err
		}
		db, err := labbase.Open(sm, labbase.DefaultOptions())
		if err != nil {
			return nil, "", fmt.Errorf("open database: %w", err)
		}
		storeName, _ := db.StoreStats()
		return db, storeName, nil
	}
	managers := make([]storage.Manager, 0, shards)
	for k := 0; k < shards; k++ {
		sm, err := openStore(name, fmt.Sprintf("%s.shard%d", path, k), pool, resident, ckpt, restore, "")
		if err != nil {
			for _, m := range managers {
				m.Close()
			}
			return nil, "", fmt.Errorf("shard %d: %w", k, err)
		}
		managers = append(managers, sm)
	}
	db, err := shard.Open(managers, labbase.DefaultOptions())
	if err != nil {
		return nil, "", fmt.Errorf("open database: %w", err)
	}
	storeName, _ := db.StoreStats()
	return db, storeName, nil
}

// parseMember parses a "k/n" cluster-member spec.
func parseMember(spec string) (index, count int, err error) {
	bad := fmt.Errorf("-shard %q: want \"k/n\" with 0 <= k < n", spec)
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, bad
	}
	index, err = strconv.Atoi(k)
	if err != nil {
		return 0, 0, bad
	}
	count, err = strconv.Atoi(n)
	if err != nil || index < 0 || count < 1 || index >= count {
		return 0, 0, bad
	}
	return index, count, nil
}

func openStore(name, path string, pool, resident, ckpt int, restore bool, ship string) (storage.Manager, error) {
	var shipper repl.Shipper
	if ship != "" {
		switch name {
		case "ostore", "OStore", "texas", "Texas", "texas+tc", "Texas+TC":
			shipper = wire.NewRemoteShipper(ship, 0)
		default:
			return nil, fmt.Errorf("-ship requires a persistent store, not %q", name)
		}
	}
	switch name {
	case "ostore", "OStore":
		return ostore.Open(ostore.Options{Path: path, PoolPages: pool, CheckpointEvery: ckpt, Shipper: shipper})
	case "texas", "Texas":
		return texas.Open(texas.Options{Path: path, MaxResidentPages: resident, CheckpointEvery: ckpt, Restore: restore, Shipper: shipper})
	case "texas+tc", "Texas+TC":
		return texas.Open(texas.Options{Path: path, MaxResidentPages: resident, Clustering: true, CheckpointEvery: ckpt, Restore: restore, Shipper: shipper})
	case "ostore-mm", "OStore-mm":
		return memstore.Open("OStore-mm"), nil
	case "texas-mm", "Texas-mm":
		return memstore.Open("Texas-mm"), nil
	default:
		return nil, fmt.Errorf("unknown store %q", name)
	}
}
