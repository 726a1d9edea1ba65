package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// Cancel cancels a running campaign and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (CampaignStatus, error) {
	return c.statusCall(ctx, http.MethodPost, "/v1/campaigns/"+id+"/cancel", nil)
}

// List fetches every campaign's status in submission order.
func (c *Client) List(ctx context.Context) ([]CampaignStatus, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil)
	if err != nil {
		return nil, err
	}
	var sts []CampaignStatus
	if err := json.Unmarshal(data, &sts); err != nil {
		return nil, fmt.Errorf("service: decoding list: %w", err)
	}
	return sts, nil
}

// ReportBytes fetches the raw persisted table JSON — the byte-identity
// surface resume verification compares.
func (c *Client) ReportBytes(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/report", nil)
}
