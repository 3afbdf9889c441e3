package boom

import (
	"skipit/internal/isa"
	"skipit/internal/tilelink"
)

// RefTick is Tick with the reference issue stage.
func (c *Core) RefTick(now int64) {
	if c.done || c.prog == nil {
		return
	}
	c.pollResponses(now)
	c.dispatch(now)
	c.refIssue(now)
	c.commit(now)
	c.ctr.robOccupancy.Set(int64(len(c.rob)))
	c.prevTick = now
}

// refIssue is the reference issue stage: fire the STQ head found by its own
// scan, then judge every ready load with refLoadForward.
func (c *Core) refIssue(now int64) {
	fired := 0
	if e := c.refSTQHead(); e != nil {
		switch {
		case e.instr.Op == isa.OpFence:
			c.tryCompleteFence(now, e)
		case e.state == esWaiting && now >= e.nextTryAt:
			if c.fire(now, e) {
				fired++
			}
		}
	}
	for _, e := range c.rob {
		if fired >= c.cfg.MemWidth {
			return
		}
		if e.instr.Op != isa.OpLoad || e.state != esWaiting || now < e.nextTryAt {
			continue
		}
		if v, forwarded, blocked := c.refLoadForward(e); blocked {
			continue
		} else if forwarded {
			e.state = esDone
			c.timings[e.instrIdx].CompletedAt = now
			c.timings[e.instrIdx].LoadValue = v
			continue
		}
		if c.fire(now, e) {
			fired++
		}
	}
}

// LoadVerdict is how the LSU classifies one waiting load: blocked behind an
// older STQ entry, forwarded an older store's value, or ready to read the
// cache (neither).
type LoadVerdict struct {
	Instr     int // program index of the load
	Blocked   bool
	Forwarded bool
	Value     uint64
}

// LoadVerdicts classifies every waiting load, oldest first, with the
// one-walk rule issue and NextEvent use.
func (c *Core) LoadVerdicts() []LoadVerdict {
	var out []LoadVerdict
	c.resetOlder()
	for i, e := range c.rob {
		if e.instr.Op == isa.OpLoad && e.state == esWaiting {
			v, fwd, blk := c.judgeLoad(i)
			out = append(out, LoadVerdict{Instr: e.instrIdx, Blocked: blk, Forwarded: fwd, Value: v})
		}
	}
	return out
}

// RefLoadVerdicts classifies every waiting load, oldest first, with the
// reference rule: each load rescans the ROB from its head.
func (c *Core) RefLoadVerdicts() []LoadVerdict {
	var out []LoadVerdict
	for _, e := range c.rob {
		if e.instr.Op == isa.OpLoad && e.state == esWaiting {
			v, fwd, blk := c.refLoadForward(e)
			out = append(out, LoadVerdict{Instr: e.instrIdx, Blocked: blk, Forwarded: fwd, Value: v})
		}
	}
	return out
}

// refLoadForward is the reference §3.2 forwarding and dependency rule: scan
// every older STQ entry from the ROB head. It returns the forwarded value,
// whether forwarding happened, and whether the load is blocked.
func (c *Core) refLoadForward(e *entry) (val uint64, forwarded, blocked bool) {
	wordAddr := e.instr.Addr &^ 7
	lineAddr := e.instr.Addr &^ (c.dc.Config().LineBytes - 1)
	var fwd *entry
	for _, o := range c.rob {
		if o == e {
			break
		}
		if !o.instr.Op.IsStoreQueue() {
			continue
		}
		switch o.instr.Op {
		case isa.OpFence:
			if o.state != esDone {
				return 0, false, true
			}
		case isa.OpStore:
			if o.instr.Addr&^7 == wordAddr {
				fwd = o
			}
		case isa.OpAmoAdd, isa.OpAmoSwap:
			if o.instr.Addr&^7 == wordAddr {
				if o.state != esDone {
					return 0, false, true
				}
				fwd = nil
			}
		case isa.OpCboClean, isa.OpCboFlush:
			if o.state != esDone && o.instr.Addr&^(c.dc.Config().LineBytes-1) == lineAddr {
				return 0, false, true
			}
		}
	}
	if fwd != nil {
		return fwd.instr.Data, true, false
	}
	return 0, false, false
}

// refSTQHead is the reference STQ head: the oldest unfinished entry when it
// is an STQ entry and every older instruction is done.
func (c *Core) refSTQHead() *entry {
	for _, e := range c.rob {
		if e.state == esDone {
			continue
		}
		if e.instr.Op.IsStoreQueue() {
			return e
		}
		return nil
	}
	return nil
}

// RefNextEvent is the reference NextEvent: the same rules, with the STQ head
// found by its own scan and every ready load judged by refLoadForward.
func (c *Core) RefNextEvent(now int64) int64 {
	if c.done || c.prog == nil {
		return tilelink.NoEvent
	}
	if c.pc < c.prog.Len() && len(c.rob) < c.cfg.ROBEntries {
		in := c.prog.Instrs[c.pc]
		roomOK := true
		switch {
		case in.Op == isa.OpLoad:
			roomOK = c.ldqCount < c.cfg.LDQEntries
		case in.Op.IsStoreQueue():
			roomOK = c.stqCount < c.cfg.STQEntries
		}
		if roomOK {
			return now + 1
		}
	}
	if len(c.rob) > 0 && c.rob[0].state == esDone {
		return now + 1
	}
	next := tilelink.NoEvent
	head := c.refSTQHead()
	for _, e := range c.rob {
		if e.state != esWaiting {
			continue
		}
		if e.instr.Op == isa.OpFence {
			if e != head {
				continue
			}
			if e.stalling && c.dc.Flushing() {
				continue
			}
			return now + 1
		}
		if e.nextTryAt > now {
			if e.nextTryAt < next {
				next = e.nextTryAt
			}
			continue
		}
		if e == head {
			return now + 1
		}
		if e.instr.Op == isa.OpLoad {
			if _, _, blocked := c.refLoadForward(e); !blocked {
				return now + 1
			}
		}
	}
	return next
}
