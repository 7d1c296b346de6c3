package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawConn is a keep-alive HTTP/1.1 client over one TCP connection. It writes
// pre-encoded requests and parses only the status line, Content-Length and
// chunked transfer encoding: a net/http client costs the two-core host enough
// CPU to starve the server it measures.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

// ioTimeout bounds one round trip; a request that takes longer counts as
// failed.
const ioTimeout = 10 * time.Second

func dial(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 4096)}, nil
}

func (rc *rawConn) Close() error { return rc.c.Close() }

// getRequest pre-encodes a GET for path (with its query string).
func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// postRequest pre-encodes a JSON POST.
func postRequest(path string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}

// do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (rc *rawConn) do(req []byte) (int, []byte, error) {
	if err := rc.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(h, "content-length:"):
			v := bytes.TrimSpace(h[len("content-length:"):])
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		case hasPrefixFold(h, "transfer-encoding:"):
			chunked = bytes.Contains(bytes.ToLower(h), []byte("chunked"))
		}
	}
	rc.body = rc.body[:0]
	switch {
	case chunked:
		err = rc.readChunked()
	case length >= 0:
		err = rc.readN(length)
	default:
		err = errors.New("response has neither Content-Length nor chunked encoding")
	}
	if err != nil {
		return 0, nil, err
	}
	return status, rc.body, nil
}

func (rc *rawConn) readN(n int) error {
	start := len(rc.body)
	if cap(rc.body)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, rc.body)
		rc.body = grown
	}
	rc.body = rc.body[:start+n]
	_, err := io.ReadFull(rc.br, rc.body[start:])
	return err
}

func (rc *rawConn) readChunked() error {
	for {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		sz := bytes.TrimSpace(line)
		if i := bytes.IndexByte(sz, ';'); i >= 0 {
			sz = sz[:i]
		}
		n, err := strconv.ParseInt(string(sz), 16, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			// Trailers, if any, end with an empty line.
			for {
				t, err := rc.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(t) <= 2 {
					return nil
				}
			}
		}
		if err := rc.readN(int(n)); err != nil {
			return err
		}
		if _, err := rc.br.Discard(2); err != nil {
			return err
		}
	}
}

func hasPrefixFold(b []byte, prefix string) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// jsonInts appends the integers of the JSON array that follows key in body
// (e.g. key `"nodes":`) to dst — enough to read a /khop answer without a
// full decode on the probe path.
func jsonInts(dst []int, body []byte, key string) ([]int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return dst, false
	}
	i += len(key)
	for i < len(body) && body[i] == ' ' {
		i++
	}
	if i >= len(body) || body[i] != '[' {
		return dst, false
	}
	v, in := 0, false
	for i++; i < len(body); i++ {
		c := body[i]
		switch {
		case '0' <= c && c <= '9':
			v, in = v*10+int(c-'0'), true
		case c == ',' || c == ']':
			if in {
				dst = append(dst, v)
			}
			if c == ']' {
				return dst, true
			}
			v, in = 0, false
		case c == ' ':
		default:
			return dst, false
		}
	}
	return dst, false
}
