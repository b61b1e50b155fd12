package service

import "time"

// WithFastRetry gives c a retry schedule short enough for tests that make
// every endpoint fail a few times, and returns c.
func WithFastRetry(c *Client) *Client {
	c.retry = retryPolicy{maxAttempts: 8, baseDelay: 5 * time.Millisecond, maxDelay: 50 * time.Millisecond}
	return c
}
