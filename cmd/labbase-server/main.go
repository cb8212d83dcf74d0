// Command labbase-server runs a LabBase data server: one process owning a
// storage manager, serving workflow tracking and history queries to network
// clients over the wire protocol.
//
// Usage:
//
//	labbase-server -addr :7047 -store texas+tc -path /var/lab/lab.db
//	labbase-server -addr :7047 -store ostore-mm          # volatile
//	labbase-server ... -rules site.lbq                   # deductive views
//	labbase-server ... -shard 1/4                        # cluster member
//
// The server owns one store and serializes writes, as the paper's LabBase
// server does. Partitioning is a cluster's job: -shard k/n makes this
// process shard k of an n-server cluster fronted by a shard.Router (it
// advertises its identity through the OpShardInfo handshake, so a router
// with a different topology refuses to use it).
// -addrfile writes the bound listen address (useful with -addr :0) so
// launchers can collect a topology without parsing logs.
//
// Replication (DESIGN §8) is ostore's: -ship addr streams every commit's
// redo record to a warm standby before the commit is acknowledged; -standby
// runs this process as that standby — it applies shipped records to its own
// media until an OpPromote arrives, then reopens the media as an ostore and
// serves normally on the same address. Both require -store ostore: texas,
// the paper's log-less heap, has no redo log to ship. -ckpt bounds recovery
// replay (ostore redo-log checkpoints, standby journal checkpoints).
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
		member    = flag.String("shard", "", "serve as cluster member k of n (\"k/n\")")
		addrfile  = flag.String("addrfile", "", "write the bound listen address to this file")
		standby   = flag.Bool("standby", false, "serve as a warm standby: apply shipped redo records to -path until promoted, then reopen and serve normally (-store ostore only)")
		stbySync  = flag.Bool("standby-sync", false, "fsync the standby journal before acking each shipped record (power-loss durability; default covers process crashes only)")
		ship      = flag.String("ship", "", "standby address to ship every commit's redo record to (-store ostore only)")
		ckpt      = flag.Int("ckpt", repl.DefaultCheckpointEvery, "checkpoint interval in commits: ostore redo-log checkpoints, standby journal checkpoints")
	)
	flag.Parse()

	if err := checkReplication(*storeName, *ship, *standby); err != nil {
		log.Fatalf("labbase-server: %v", err)
	}
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

	db, name, err := openDB(*storeName, *path, *pool, *resident, *member, *ckpt, *ship)
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

// checkReplication refuses -ship and -standby on any store but ostore, the
// one backend with a redo log to ship and a store to promote into.
func checkReplication(store, ship string, standby bool) error {
	if store == "ostore" || store == "OStore" {
		return nil
	}
	switch {
	case ship != "":
		return fmt.Errorf("-ship requires -store ostore; %q has no redo log to ship", store)
	case standby:
		return fmt.Errorf("-standby requires -store ostore; %q has no redo log to follow", store)
	}
	return nil
}

// openDB opens the store behind the labbase.Store facade. A non-empty
// member spec ("k/n") makes it one cluster shard whose OIDs carry shard tag
// k and whose OpShardInfo handshake advertises k of n.
func openDB(name, path string, pool, resident int, member string, ckpt int, ship string) (labbase.Store, string, error) {
	if member != "" {
		index, count, err := parseMember(member)
		if err != nil {
			return nil, "", err
		}
		sm, err := openStore(name, path, pool, resident, ckpt, ship)
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
	sm, err := openStore(name, path, pool, resident, ckpt, ship)
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

// openStore opens one storage manager. ship is honoured by ostore alone;
// checkReplication has already refused it for every other store.
func openStore(name, path string, pool, resident, ckpt int, ship string) (storage.Manager, error) {
	switch name {
	case "ostore", "OStore":
		var shipper repl.Shipper
		if ship != "" {
			shipper = wire.NewRemoteShipper(ship, 0)
		}
		return ostore.Open(ostore.Options{Path: path, PoolPages: pool, CheckpointEvery: ckpt, Shipper: shipper})
	case "texas", "Texas":
		return texas.Open(texas.Options{Path: path, MaxResidentPages: resident})
	case "texas+tc", "Texas+TC":
		return texas.Open(texas.Options{Path: path, MaxResidentPages: resident, Clustering: true})
	case "ostore-mm", "OStore-mm":
		return memstore.Open("OStore-mm"), nil
	case "texas-mm", "Texas-mm":
		return memstore.Open("Texas-mm"), nil
	default:
		return nil, fmt.Errorf("unknown store %q", name)
	}
}
