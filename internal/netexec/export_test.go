package netexec

import (
	"fmt"
)

// WorkerStats asks worker slot id for its store footprint (transfer count,
// record count) — test hook proving exchanges clean up after themselves.
func (c *Coordinator) WorkerStats(id int) (xfers, records uint64, err error) {
	err = c.withRetry(c.slots[id], nil, func(r *rpc) error {
		xfers, records, err = r.stats()
		return err
	})
	return xfers, records, err
}

// KillWorker forcibly kills a spawned worker's process — test hook for
// death-recovery scenarios.
func (c *Coordinator) KillWorker(id int) error {
	s := c.slots[id]
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("netexec: slot %d has no spawned process", id)
	}
	return cmd.Process.Kill()
}
