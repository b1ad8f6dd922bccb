package main

import (
	"os"
	"sync/atomic"
)

// timedJournal is the file handed to sim.WithJournal, wrapped so the
// benchmark can time each append and fsync from outside the coordinator.
// It keeps the Sync method, so the coordinator still fsyncs every
// acknowledged batch exactly as it does on a bare *os.File.
type timedJournal struct {
	f     *os.File
	tr    *tracer
	syncs atomic.Int64
	bytes atomic.Int64
}

func (j *timedJournal) Write(p []byte) (int, error) {
	id := j.tr.begin("journal.Write", -1, 0)
	n, err := j.f.Write(p)
	j.tr.end(id)
	j.bytes.Add(int64(n))
	return n, err
}

func (j *timedJournal) Sync() error {
	id := j.tr.begin("journal.Sync", -1, 0)
	err := j.f.Sync()
	j.tr.end(id)
	j.syncs.Add(1)
	return err
}
