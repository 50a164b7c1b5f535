package daemon

import (
	"bufio"
	"encoding/json"
	"net"
	"time"
)

// maxLine bounds one protocol line (program sources travel inline).
const maxLine = 8 << 20

// handleConn serves one client: newline-delimited JSON requests, one
// response line each, in order.
func (d *Daemon) handleConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			enc.Encode(&Response{Err: apiErrorf(ErrBadRequest, "bad json: %v", err)})
			return
		}
		resp, closeAfter := d.handle(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if closeAfter {
			// The drain op tears the daemon down after the response is on
			// the wire.
			d.CloseListener()
			return
		}
	}
}

// handle dispatches one request. The second return asks the connection loop
// to stop the daemon's accept loop after responding (drain).
func (d *Daemon) handle(req *Request) (*Response, bool) {
	if req.API != "" && req.API != APIVersion {
		return &Response{Err: apiErrorf(ErrUnsupported, "api %q not supported (want %s)", req.API, APIVersion)}, false
	}
	switch req.Op {
	case "ping":
		return &Response{OK: true, Info: d.Info()}, false
	case "submit":
		st, aerr := d.Submit(req.Spec)
		if aerr != nil {
			return &Response{Err: aerr}, false
		}
		return &Response{OK: true, ID: st.ID, Job: st}, false
	case "status":
		st, aerr := d.Status(req.ID)
		if aerr != nil {
			return &Response{Err: aerr}, false
		}
		return &Response{OK: true, ID: st.ID, Job: st}, false
	case "list":
		return &Response{OK: true, Jobs: d.List(req.Tenant)}, false
	case "wait":
		timeout := time.Duration(req.TimeoutMS) * time.Millisecond
		st, aerr := d.Wait(req.ID, timeout)
		if aerr != nil {
			return &Response{Err: aerr}, false
		}
		return &Response{OK: true, ID: st.ID, Job: st}, false
	case "cancel":
		st, aerr := d.Cancel(req.ID)
		if aerr != nil {
			return &Response{Err: aerr}, false
		}
		return &Response{OK: true, ID: st.ID, Job: st}, false
	case "trace":
		raw, err := d.traceJSONCompact()
		if err != nil {
			return &Response{Err: apiErrorf(ErrInternal, "trace: %v", err)}, false
		}
		return &Response{OK: true, Trace: raw}, false
	case "logs":
		return &Response{OK: true, Logs: d.logEntriesRaw(req.Level, req.ID, req.Max)}, false
	case "drain":
		if err := d.Drain(); err != nil {
			return &Response{Err: apiErrorf(ErrInternal, "drain: %v", err)}, true
		}
		return &Response{OK: true, Info: d.Info()}, true
	default:
		return &Response{Err: apiErrorf(ErrBadRequest, "unknown op %q", req.Op)}, false
	}
}
